// Package offload is the public HAM-Offload API: a portable, low-overhead
// offloading programming model based on Heterogeneous Active Messages,
// ported to Go from the C++ framework the paper extends to the NEC SX-Aurora
// TSUBASA. The API mirrors the paper's Table II:
//
//	node_t              -> NodeID
//	node_descriptor     -> NodeDescriptor
//	buffer_ptr<T>       -> BufferPtr[T]
//	future<T>           -> Future[T]
//	f2f(fn, args...)    -> NewFuncN(name, impl) + Bind(args...)
//	sync(node, f)       -> Sync(rt, node, functor)
//	async(node, f)      -> Async(rt, node, functor)
//	allocate<T>(n, s)   -> Allocate[T](rt, node, count)
//	free(p)             -> Free(rt, ptr)
//	put/get/copy        -> Put / Get / Copy
//	num_nodes()         -> rt.NumNodes()
//	this_node()         -> rt.ThisNode()
//	get_node_descriptor -> rt.GetNodeDescriptor(n)
//
// Offloadable functions are registered once (typically in package init
// functions, the analog of the C++ template instantiation at build time) and
// bound to arguments at the call site:
//
//	var innerProd = offload.NewFunc3[float64]("inner_prod",
//	    func(c *offload.Ctx, a, b offload.BufferPtr[float64], n int64) (float64, error) {
//	        av, _ := offload.ReadLocal(c, a, 0, n)
//	        bv, _ := offload.ReadLocal(c, b, 0, n)
//	        c.ChargeVector(2*n, 16*n, 8)
//	        r := 0.0
//	        for i := range av { r += av[i] * bv[i] }
//	        return r, nil
//	    })
//
//	fut := offload.Async(rt, target, innerProd.Bind(aT, bT, n))
//	result, err := fut.Get()
//
// As in the paper the kernel dereferences in place: av and bv are the buffers.
//
// The communication backend is exchangeable (Fig. 1): the machine package
// wires the two SX-Aurora protocols of the paper onto a simulated A300-8;
// the TCP backend connects host processes over real sockets.
package offload

import (
	"hamoffload/internal/core"
	"hamoffload/internal/ham"
)

// Core type surface, re-exported.
type (
	// NodeID addresses one process of the application; node 0 is the host.
	NodeID = core.NodeID
	// NodeDescriptor describes a node (Table II's node_descriptor).
	NodeDescriptor = core.NodeDescriptor
	// Runtime is one node's HAM-Offload runtime.
	Runtime = core.Runtime
	// Backend is the abstract communication layer of Fig. 1.
	Backend = core.Backend
	// LocalMemory is a node's local memory used by allocate/free handlers.
	LocalMemory = core.LocalMemory
	// Ctx is the execution context of an offloaded function on its target.
	Ctx = core.Ctx
	// Unit is the result type of offloaded functions returning nothing.
	Unit = core.Unit
	// Marshaler lets custom argument types define their wire format:
	// implement EncodeHAM/DecodeHAM with pointer receivers and use the
	// value type as the offloaded argument.
	Marshaler = core.Marshaler
	// Encoder and Decoder are the HAM wire codec used by Marshaler
	// implementations.
	Encoder = ham.Encoder
	Decoder = ham.Decoder
	// Handle identifies an in-flight offload at backend level.
	Handle = core.Handle
)

// HostNode is the conventional host rank.
const HostNode = core.HostNode

// FaultTolerance is the runtime's retry policy for transient offload
// failures; install it with rt.SetFaultTolerance (or through
// machine.ProtocolOptions.Retry). The zero value disables retries.
type FaultTolerance = core.FaultTolerance

// HedgePolicy arms hedged requests against fail-slow (gray) targets: an
// offload still in flight after the configured simulated delay is
// speculatively re-issued to a second healthy node and the first settled
// copy wins. Install it with rt.SetHedging (or through
// machine.ProtocolOptions.Hedge); requires FaultTolerance. The zero value
// disables hedging.
type HedgePolicy = core.HedgePolicy

// RetryBudget is the per-target token bucket shared by retries and hedges,
// capping the extra traffic resilience machinery may aim at a degraded
// node. Install it with rt.SetRetryBudget (or through
// machine.ProtocolOptions.RetryBudget). The zero value is unbudgeted.
type RetryBudget = core.RetryBudget

// Failure classification for offload errors, re-exported from core. Match
// with errors.Is; see docs/FAULTS.md.
var (
	// ErrNodeFailed marks a node as failed: in-flight futures to it fail,
	// and new offloads are rejected until Runtime.RecoverNode succeeds.
	ErrNodeFailed = core.ErrNodeFailed
	// ErrOffloadTimeout reports an offload that exceeded the backend's
	// configured timeout on the simulated clock.
	ErrOffloadTimeout = core.ErrOffloadTimeout
	// ErrPayloadCorrupt reports a checksum or envelope violation on a
	// fault-tolerant message; it is transient and retried.
	ErrPayloadCorrupt = core.ErrPayloadCorrupt
	// ErrUnsupported reports an operation the node's backend cannot perform
	// at all, such as Runtime.RecoverNode on a backend that cannot redial.
	ErrUnsupported = core.ErrUnsupported
)

// Generic type surface, re-exported (generic aliases).
type (
	// BufferPtr points to target memory of element type T (buffer_ptr<T>).
	BufferPtr[T Elem] = core.BufferPtr[T]
	// Future is the lazy synchronisation object of async offloads.
	Future[T any] = core.Future[T]
	// Functor is a function with bound arguments, ready to offload. It
	// holds copies of them: the caller may reuse what it bound once Bind
	// returns.
	Functor[R any] = core.Functor[R]
	// Elem constrains buffer elements to fixed-size scalars.
	Elem = core.Elem
	// Func0..Func4 are registered offloadable functions by arity.
	Func0[R any]                 = core.Func0[R]
	Func1[R, A1 any]             = core.Func1[R, A1]
	Func2[R, A1, A2 any]         = core.Func2[R, A1, A2]
	Func3[R, A1, A2, A3 any]     = core.Func3[R, A1, A2, A3]
	Func4[R, A1, A2, A3, A4 any] = core.Func4[R, A1, A2, A3, A4]
)

// NewRuntime creates the runtime for one node over a backend. arch labels
// this node's binary for HAM's handler-key translation; the two sides of an
// application must use different arch strings.
func NewRuntime(b Backend, arch string) *Runtime { return core.NewRuntime(b, arch) }

// NewFunc0 registers an offloadable function with no arguments. Register
// before creating any Runtime, typically from init functions.
func NewFunc0[R any](name string, impl func(*Ctx) (R, error)) Func0[R] {
	return core.NewFunc0(name, impl)
}

// NewFunc1 registers an offloadable one-argument function. A []byte
// argument is borrowed: impl reads it in the message it arrived in, and it
// is valid until impl returns, so impl copies it (bytes.Clone) to keep it
// longer; returning it as the result, or binding it to another offload, is
// fine. Every other argument type is a copy impl owns.
func NewFunc1[R, A1 any](name string, impl func(*Ctx, A1) (R, error)) Func1[R, A1] {
	return core.NewFunc1(name, impl)
}

// NewFunc2 registers an offloadable two-argument function. A []byte
// argument is valid until impl returns; every other argument is a copy impl
// owns (see NewFunc1).
func NewFunc2[R, A1, A2 any](name string, impl func(*Ctx, A1, A2) (R, error)) Func2[R, A1, A2] {
	return core.NewFunc2(name, impl)
}

// NewFunc3 registers an offloadable three-argument function. A []byte
// argument is valid until impl returns; every other argument is a copy impl
// owns (see NewFunc1).
func NewFunc3[R, A1, A2, A3 any](name string, impl func(*Ctx, A1, A2, A3) (R, error)) Func3[R, A1, A2, A3] {
	return core.NewFunc3(name, impl)
}

// NewFunc4 registers an offloadable four-argument function. A []byte
// argument is valid until impl returns; every other argument is a copy impl
// owns (see NewFunc1).
func NewFunc4[R, A1, A2, A3, A4 any](name string, impl func(*Ctx, A1, A2, A3, A4) (R, error)) Func4[R, A1, A2, A3, A4] {
	return core.NewFunc4(name, impl)
}

// Async performs an asynchronous offload of fn to node (Table II's async).
func Async[R any](rt *Runtime, node NodeID, fn Functor[R]) *Future[R] {
	return core.Async(rt, node, fn)
}

// Sync performs a synchronous offload of fn to node (Table II's sync).
func Sync[R any](rt *Runtime, node NodeID, fn Functor[R]) (R, error) {
	return core.Sync(rt, node, fn)
}

// Allocate reserves count elements of type T on an offload target.
func Allocate[T Elem](rt *Runtime, node NodeID, count int64) (BufferPtr[T], error) {
	return core.Allocate[T](rt, node, count)
}

// Free releases target memory allocated with Allocate.
func Free[T Elem](rt *Runtime, b BufferPtr[T]) error { return core.Free(rt, b) }

// Put writes src into target memory at dst.
func Put[T Elem](rt *Runtime, src []T, dst BufferPtr[T]) error { return core.Put(rt, src, dst) }

// Get reads len(dst) elements from target memory at src.
func Get[T Elem](rt *Runtime, src BufferPtr[T], dst []T) error { return core.Get(rt, src, dst) }

// Copy performs a host-orchestrated copy between two target buffers.
func Copy[T Elem](rt *Runtime, src, dst BufferPtr[T], count int64) error {
	return core.Copy(rt, src, dst, count)
}

// ReadLocal returns elements [off, off+count) of a local buffer inside an
// offloaded function: the buffer's own memory, valid until Free, not a copy.
func ReadLocal[T Elem](c *Ctx, b BufferPtr[T], off, count int64) ([]T, error) {
	return core.ReadLocal(c, b, off, count)
}

// WriteLocal stores elements into a local buffer inside an offloaded
// function; a no-op when vals is what ReadLocal returned for that offset.
func WriteLocal[T Elem](c *Ctx, b BufferPtr[T], off int64, vals []T) error {
	return core.WriteLocal(c, b, off, vals)
}

// GetAll drains the futures, returning results in order and the first error.
func GetAll[R any](futs []*Future[R]) ([]R, error) { return core.GetAll(futs) }
