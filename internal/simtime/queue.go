package simtime

// fifo is the slice-backed first-in-first-out list behind Queue's items and
// every wait list. Its storage is bounded by the backlog rather than by the
// number of values ever pushed, and in steady state push and take reuse it
// without allocating: a drained list rewinds onto its storage, and one that
// never quite drains slides its values down once the consumed prefix is the
// larger half.
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

// Queue is an unbounded FIFO message queue between simulated processes,
// analogous to a Go channel. Push never blocks; Pop blocks while the queue is
// empty. The zero value is not usable; create Queues with NewQueue.
type Queue[T any] struct {
	eng     *Engine
	name    string
	items   fifo[T]
	waiters fifo[*Proc]
	watch   *Watch // notified on Push (Notifies)

	// The park label is precomputed here so that Pop does not rebuild
	// "queue <name>" by string concatenation on every empty-queue park.
	popLabel string
}

// NewQueue returns an empty queue bound to the engine. The name appears in
// deadlock diagnostics.
func NewQueue[T any](e *Engine, name string) *Queue[T] {
	return &Queue[T]{eng: e, name: name, popLabel: "queue " + name}
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return q.items.len() }

// Push appends v and wakes one waiting consumer, if any. It may be called
// from any running process (or before Run starts).
func (q *Queue[T]) Push(v T) {
	q.items.push(v)
	q.wakeOne()
	if q.watch != nil {
		q.watch.Notify()
	}
}

// Notifies makes Push notify w, for a poll that waits for items on its own
// grid.
func (q *Queue[T]) Notifies(w *Watch) { q.watch = w }

func (q *Queue[T]) wakeOne() {
	if q.waiters.len() > 0 {
		q.eng.schedule(q.eng.now, q.waiters.take())
	}
}

// Pop removes and returns the oldest item, blocking p while the queue is
// empty.
func (q *Queue[T]) Pop(p *Proc) T {
	for q.Len() == 0 {
		q.waiters.push(p)
		p.park(q.popLabel)
	}
	v := q.items.take()
	// More items may remain and more waiters may be parked (a woken waiter
	// could have been overtaken); keep the wake chain going.
	if q.Len() > 0 {
		q.wakeOne()
	}
	return v
}

// TryPop removes and returns the oldest item without blocking. The second
// result reports whether an item was available.
func (q *Queue[T]) TryPop() (T, bool) {
	if q.Len() == 0 {
		var zero T
		return zero, false
	}
	return q.items.take(), true
}
