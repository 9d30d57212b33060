package core

import "hamoffload/internal/ham"

// Future is the lazy synchronisation object returned by asynchronous
// offloads (Table II's future<T>): Test polls without blocking, Get blocks
// until the result message arrived and decodes it.
type Future[T any] struct {
	rt     *Runtime
	c      *call // the wire message carrying this offload; shared by a frame's futures
	decode func(*ham.Decoder) (T, error)

	// hook fires exactly once as the future settles or fails: the one hook
	// registered, or a chain of them (hookChain), run in registration
	// order. With a tracer attached, Issue registers the closer of the
	// offload lifecycle span first.
	hook SettleHook

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

// hookChain chains a later hook behind an earlier one (itself a chain when
// the future has more than two). Chain nodes cycle through the runtime's
// free list (Runtime.freeHook): a node is cleared and put back only after
// both of its hooks ran, so a hook that registers another one, on any
// future, never gets the node it is running from.
type hookChain struct {
	rt          *Runtime
	first, then SettleHook
	next        *hookChain // the free list's link
}

// FutureSettled runs both hooks, then recycles the node.
func (c *hookChain) FutureSettled() {
	c.first.FutureSettled()
	c.then.FutureSettled()
	rt := c.rt
	*c = hookChain{rt: rt, next: rt.freeHook}
	rt.freeHook = c
}

// chainHook returns a chain node running first, then then, from the free
// list when it holds one.
func (rt *Runtime) chainHook(first, then SettleHook) *hookChain {
	c := rt.freeHook
	if c == nil {
		c = &hookChain{rt: rt} //lint:allow hotalloc miss of the Runtime.freeHook pool, which recycles chain nodes once their hooks ran
	} else {
		rt.freeHook, c.next = c.next, nil
	}
	c.first, c.then = first, then
	return c
}

// OnSettle registers fn to run once when the future completes, after any
// result decoding; a future that already completed runs it immediately.
// The cluster scheduler uses it for in-flight accounting.
func (f *Future[T]) OnSettle(fn func()) { f.OnSettleHook(hookFunc(fn)) }

// OnSettleHook is OnSettle for a SettleHook. Hooks run in registration
// order. A second hook on an issued future chains through a node of the
// runtime's free list, so a warm registration allocates nothing.
func (f *Future[T]) OnSettleHook(h SettleHook) {
	switch {
	case f.done:
		h.FutureSettled()
	case f.hook == nil:
		f.hook = h
	default:
		f.hook = f.rt.chainHook(f.hook, h)
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
