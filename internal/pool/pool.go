// Package pool is the one free list records recycle through: built once,
// reused ever after, as the paper's runtime reuses its slots and buffers.
package pool

import "iter"

// Link is embedded in a pooled record: its link while it is parked.
type Link[T any] struct{ next *T }

func (l *Link[T]) link() *Link[T] { return l }

// Free is a LIFO free list of T records, which embed Link[T]; the zero value
// is empty. It is not safe for concurrent use.
type Free[T any, P interface {
	*T
	link() *Link[T]
}] struct {
	head P
	live int
}

// Take returns the last record Put, as Put left it, or a new zero one.
func (f *Free[T, P]) Take() P {
	f.live++
	r := f.head
	if r == nil {
		return new(T) //lint:allow hotalloc pool miss: one record per record ever taken at once, then recycled
	}
	l := r.link()
	f.head, l.next = l.next, nil
	return r
}

// Put parks r, which Take returned.
func (f *Free[T, P]) Put(r P) {
	r.link().next, f.head = f.head, r
	f.live--
}

// Live returns how many taken records have not been put back.
func (f *Free[T, P]) Live() int { return f.live }

// Parked yields the parked records, the next Take's first.
func (f *Free[T, P]) Parked() iter.Seq[P] {
	return func(yield func(P) bool) {
		for r := f.head; r != nil && yield(r); r = r.link().next {
		}
	}
}
