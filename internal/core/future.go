package core

import (
	"hamoffload/internal/ham"
	"hamoffload/internal/pool"
)

// Future is the lazy synchronisation object returned by asynchronous
// offloads (Table II's future<T>): Test polls without blocking, Get blocks
// until the result message arrived and decodes it.
type Future[T any] struct {
	// c is the wire message carrying this offload, shared by a frame's
	// futures, until the future settles; then it is &settledCall, which is
	// what "done" means. Issue sets it, and only an unsettled future reads
	// it, so its runtime, c.rt, is the future's: a pooled call never
	// changes runtime. The result decoder rides beside the future in the
	// call's sink entry, not in the future.
	c *call

	// x is the settle hook until the future settles and its error after:
	// the two are never needed at once, so they share one slot, and c says
	// which one it holds. The hook fires exactly once as the future settles
	// or fails: the one hook registered, or a chain of them (hookChain), run
	// in registration order. With a tracer attached, Issue registers the
	// closer of the offload lifecycle span first.
	x any

	val T
}

// settledCall is the call every settled future points at: a future is done
// exactly when its c is &settledCall. It is never posted, polled or
// resolved.
var settledCall call

// Test reports whether the result is available, without blocking. Under a
// fault-tolerance policy a transient failure observed here re-posts the
// request and keeps the future in flight.
func (f *Future[T]) Test() bool {
	if c := f.c; c != &settledCall {
		c.poll()
	}
	return f.Done()
}

// Done reports whether the future has settled, without polling (Test polls).
func (f *Future[T]) Done() bool { return f.c == &settledCall }

// Get blocks until the offload completed and returns its result.
func (f *Future[T]) Get() (T, error) {
	if c := f.c; c != &settledCall {
		c.resolve()
	}
	err, _ := f.x.(error)
	return f.val, err
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
// pool (Runtime.hooks): a node is cleared and put back only after both of
// its hooks ran, so a hook that registers another one, on any future, never
// gets the node it is running from.
type hookChain struct {
	rt          *Runtime
	first, then SettleHook
	pool.Link[hookChain]
}

// FutureSettled runs both hooks, then recycles the node.
func (c *hookChain) FutureSettled() {
	c.first.FutureSettled()
	c.then.FutureSettled()
	c.first, c.then = nil, nil
	c.rt.hooks.Put(c)
}

// OnSettle registers fn to run once when the future completes, after any
// result decoding; a future that already completed runs it immediately.
func (f *Future[T]) OnSettle(fn func()) { f.OnSettleHook(hookFunc(fn)) }

// OnSettleHook is OnSettle for a SettleHook. Hooks run in registration
// order. A second hook on an issued future chains through a node of the
// runtime's pool, so a warm registration allocates nothing. The cluster
// scheduler registers each MapFutures task record this way for its
// in-flight accounting, and the gateway each ticket.
func (f *Future[T]) OnSettleHook(h SettleHook) {
	switch {
	case f.Done():
		h.FutureSettled()
	case f.x == nil:
		f.x = h
	default:
		rt := f.c.rt
		c := rt.hooks.Take()
		c.rt, c.first, c.then = rt, f.x.(SettleHook), h
		f.x = c
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
	if f.Done() {
		return
	}
	f.c = &settledCall
	f.fireDone(err)
}

// settle decodes resp with decode, the func(*ham.Decoder) (T, error) Issue
// put beside f in the call's sink entry.
func (f *Future[T]) settle(resp []byte, decode any) {
	if f.Done() {
		return
	}
	// Settling is strictly sequential per runtime, so the runtime's scratch
	// decoder serves every future; decoded slices and strings are copied out
	// by the Decoder accessors, so nothing aliases the scratch afterwards.
	// Only a call's deliver settles a future, so f.c is its call until the
	// sentinel replaces it.
	rt := f.c.rt
	f.c = &settledCall
	dec, err := ham.DecodeResponseInto(&rt.respDec, resp)
	if err == nil {
		f.val, err = decode.(func(*ham.Decoder) (T, error))(dec)
	}
	f.fireDone(err)
}

// fireDone turns x from the hook into err, then runs the hook, which may
// read the outcome. f.c is already &settledCall.
func (f *Future[T]) fireDone(err error) {
	h, _ := f.x.(SettleHook)
	f.x = err
	if h != nil {
		h.FutureSettled()
	}
}
