package simtime

// fifo is the slice-backed first-in-first-out list behind Queue's items and
// the Semaphore's wait list. Its storage is bounded by the backlog rather
// than by the number of values ever pushed, and in steady state push and take
// reuse it without allocating: a drained list rewinds onto its storage, and
// one that never quite drains slides its values down once the consumed prefix
// is the larger half.
type fifo[T any] struct {
	buf  []T
	head int
}

func (f *fifo[T]) len() int { return len(f.buf) - f.head }

func (f *fifo[T]) push(v T) {
	f.buf = append(f.buf, v)
}

// peek returns the oldest value of a non-empty list in place.
func (f *fifo[T]) peek() *T { return &f.buf[f.head] }

// take removes and returns the oldest value of a non-empty list.
func (f *fifo[T]) take() T {
	v := f.buf[f.head]
	var zero T
	f.buf[f.head] = zero // release for GC
	f.head++
	switch {
	case f.head == len(f.buf):
		f.buf = f.buf[:0]
		f.head = 0
	case f.head > 64 && f.head*2 >= len(f.buf):
		n := copy(f.buf, f.buf[f.head:])
		clear(f.buf[n:]) // release the moved values' old slots for GC
		f.buf = f.buf[:n]
		f.head = 0
	}
	return v
}

// Queue is an unbounded FIFO message queue between simulated processes. Push
// never blocks, and neither does TryPop: a consumer waits for items in a
// Proc.Poll on a Watch that Push notifies (Notifies), on its own poll grid.
// The zero value is an empty queue.
type Queue[T any] struct {
	items fifo[T]
	watch *Watch // notified on Push (Notifies)
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return q.items.len() }

// Push appends v and notifies the consumer's Watch, if any, once p, the
// pushing process, has paid its debt.
func (q *Queue[T]) Push(p *Proc, v T) {
	p.Pay()
	q.items.push(v)
	if q.watch != nil {
		q.watch.Notify()
	}
}

// Notifies makes Push notify w, for a poll that waits for items on its own
// grid.
func (q *Queue[T]) Notifies(w *Watch) { q.watch = w }

// TryPop removes and returns the oldest item without blocking. The second
// result reports whether an item was available.
func (q *Queue[T]) TryPop() (T, bool) {
	if q.Len() == 0 {
		var zero T
		return zero, false
	}
	return q.items.take(), true
}
