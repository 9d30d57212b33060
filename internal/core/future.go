package core

import "hamoffload/internal/ham"

// Future is the lazy synchronisation object returned by asynchronous
// offloads (Table II's future<T>): Test polls without blocking, Get blocks
// until the result message arrived and decodes it.
type Future[T any] struct {
	rt     *Runtime
	h      Handle
	pd     *pending // fault-tolerance retransmission state, nil with FT off
	decode func(*ham.Decoder) (T, error)

	// bt, when set, marks this future as one entry of a batch frame (see
	// batch.go): resolution goes through the shared batchCall instead of a
	// private backend handle. btv is the ticket's storage, embedded so a
	// batched future needs no second allocation; bt points at btv.
	bt  *batchTicket
	btv batchTicket

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
	if f.done {
		return true
	}
	if f.bt != nil {
		// A still-queued frame cannot complete on its own; force it out so
		// polling makes progress, then poll the shared call.
		f.bt.ensureFlushed()
		f.bt.bc.poll()
		return f.done
	}
	resp, h, done, err := f.rt.pollResolved(f.h, f.pd)
	f.h = h
	if !done {
		return false
	}
	if err != nil {
		f.fail(err)
		return true
	}
	f.settle(resp)
	return true
}

// Get blocks until the offload completed and returns its result.
func (f *Future[T]) Get() (T, error) {
	if f.done {
		return f.val, f.err
	}
	if f.bt != nil {
		f.bt.ensureFlushed()
		f.bt.bc.resolve()
		return f.val, f.err
	}
	resp, err := f.rt.resolve(f.h, f.pd)
	if err != nil {
		f.fail(err)
		return f.val, f.err
	}
	f.settle(resp)
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

// newFuture wires a backend handle to a result decoder.
func newFuture[T any](rt *Runtime, h Handle, decode func(*ham.Decoder) (T, error)) *Future[T] {
	return &Future[T]{rt: rt, h: h, decode: decode} //lint:allow hotalloc one future per offload is the API contract
}

// completedFuture wraps an already-finished operation, for the data-transfer
// variants whose backends complete eagerly.
func completedFuture[T any](val T, err error) *Future[T] {
	return &Future[T]{done: true, val: val, err: err}
}

// failedFuture builds a future that failed before it was posted, closing the
// offload span through onDone like a settled one would.
//
//hot:cold
func failedFuture[T any](rt *Runtime, onDone func(), err error) *Future[T] {
	f := &Future[T]{rt: rt, onDone: onDone}
	f.fail(err)
	return f
}
