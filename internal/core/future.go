package core

import "hamoffload/internal/ham"

// Future is the lazy synchronisation object returned by asynchronous
// offloads (Table II's future<T>): Test polls without blocking, Get blocks
// until the result message arrived and decodes it.
type Future[T any] struct {
	rt     *Runtime
	c      *call // the wire message carrying this offload; shared by a frame's futures
	decode func(*ham.Decoder) (T, error)

	// onDone, when set, fires exactly once as the future settles or fails;
	// the runtime uses it to close the offload lifecycle span. hook runs
	// right after it: the settle hooks callers registered, in order.
	onDone func()
	hook   SettleHook

	done bool
	val  T
	err  error
}

// Test reports whether the result is available, without blocking. Under a
// fault-tolerance policy a transient failure observed here re-posts the
// request and keeps the future in flight.
func (f *Future[T]) Test() bool {
	if !f.done {
		f.c.poll()
	}
	return f.done
}

// Done reports whether the future has settled, without polling (Test polls).
func (f *Future[T]) Done() bool { return f.done }

// Get blocks until the offload completed and returns its result.
func (f *Future[T]) Get() (T, error) {
	if !f.done {
		f.c.resolve()
	}
	return f.val, f.err
}

// SettleHook is notified once when a future completes, after any result
// decoding. It is the allocation-free form of an OnSettle callback: a
// caller that already holds a per-request object (the gateway's ticket)
// passes a pointer to it instead of building a closure around it.
type SettleHook interface {
	FutureSettled()
}

// hookFunc adapts a plain callback; a func value fits the interface word.
type hookFunc func()

func (fn hookFunc) FutureSettled() { fn() }

// hookPair chains a later hook behind an earlier one. Only a future with
// more than one hook pays for it.
type hookPair struct{ first, then SettleHook }

func (p *hookPair) FutureSettled() {
	p.first.FutureSettled()
	p.then.FutureSettled()
}

// OnSettle registers fn to run once when the future completes, after any
// result decoding; a future that already completed runs it immediately.
// The cluster scheduler uses it for in-flight accounting.
func (f *Future[T]) OnSettle(fn func()) { f.OnSettleHook(hookFunc(fn)) }

// OnSettleHook is OnSettle for a SettleHook. Hooks run in registration
// order.
func (f *Future[T]) OnSettleHook(h SettleHook) {
	switch {
	case f.done:
		h.FutureSettled()
	case f.hook == nil:
		f.hook = h
	default:
		f.hook = &hookPair{first: f.hook, then: h} //lint:allow hotalloc a further hook is registration state the future keeps until it settles
	}
}

// MustGet is Get for cases where a remote failure is a programming error.
func (f *Future[T]) MustGet() T {
	v, err := f.Get()
	if err != nil {
		panic(err)
	}
	return v
}

func (f *Future[T]) fail(err error) {
	if f.done {
		return
	}
	f.done = true
	f.err = err
	f.fireDone()
}

func (f *Future[T]) settle(resp []byte) {
	if f.done {
		return
	}
	f.done = true
	// Settling is strictly sequential per runtime, so the runtime's scratch
	// decoder serves every future; decoded slices and strings are copied out
	// by the Decoder accessors, so nothing aliases the scratch afterwards.
	dec, err := ham.DecodeResponseInto(&f.rt.respDec, resp)
	if err != nil {
		f.err = err
		f.fireDone()
		return
	}
	f.val, f.err = f.decode(dec)
	f.fireDone()
}

func (f *Future[T]) fireDone() {
	if f.onDone != nil {
		f.onDone()
		f.onDone = nil
	}
	if h := f.hook; h != nil {
		f.hook = nil
		h.FutureSettled()
	}
}

// completedFuture wraps an already-finished operation, for the data-transfer
// variants whose backends complete eagerly.
func completedFuture[T any](val T, err error) *Future[T] {
	return &Future[T]{done: true, val: val, err: err}
}
