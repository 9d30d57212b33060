// Package core implements the HAM-Offload runtime — the paper's primary
// contribution, ported from C++ to Go. It provides the programming model of
// Table II (nodes, buffer pointers, futures, synchronous and asynchronous
// offloads, explicit data transfers) on top of Heterogeneous Active Messages
// (internal/ham) and an exchangeable communication backend (internal/backend/...),
// mirroring the layer architecture of Fig. 1.
package core

import (
	"fmt"

	"hamoffload/internal/ham"
	"hamoffload/internal/mem"
	"hamoffload/internal/pool"
	"hamoffload/internal/simtime"
	"hamoffload/internal/trace"
)

// NodeID addresses one process of a HAM-Offload application. Node 0 is the
// host by convention; offload targets follow.
type NodeID int

// HostNode is the conventional host rank.
const HostNode NodeID = 0

// NodeDescriptor carries static information about a node (Table II's
// node_descriptor).
type NodeDescriptor struct {
	Name   string // e.g. "vh" or "ve0"
	Arch   string // e.g. "x86_64" or "aurora-ve"
	Device string // free-form device description
}

// Handle identifies an in-flight offload at the backend level.
type Handle any

// LocalMemory is the target-local memory a node's built-in allocate/free
// handlers and kernel buffer accessors operate on: a *mem.Heap, or the lock
// around one (Heap).
type LocalMemory interface {
	// Alloc reserves n bytes and returns the buffer address.
	Alloc(n int64) (mem.Addr, error)
	// Free releases an allocation made with Alloc.
	Free(addr mem.Addr) error
	// View returns the memory of [addr, addr+n), in one allocation, itself.
	View(addr mem.Addr, n int64) ([]byte, error)
}

// Backend is the abstract communication layer of Fig. 1. One Backend value
// serves one node: initiator-side methods are used where offloads originate,
// Serve runs the message loop where they execute. The paper's SX-Aurora
// slot-ring protocol (backend/ring, over the backend/veob and backend/dmab
// transports), the portable TCP/IP backend (backend/tcpb) and the in-process
// loopback (backend/locb) all implement it.
type Backend interface {
	// Self returns this node's id.
	Self() NodeID
	// NumNodes returns the number of nodes in the application.
	NumNodes() int
	// Descriptor describes a node.
	Descriptor(n NodeID) NodeDescriptor

	// Call posts an active message to the target node and returns a handle
	// for result retrieval. msg may alias a runtime scratch buffer: the
	// backend may read it for the duration of the call (including any parks
	// on a simulated clock) but must not retain it after Call returns —
	// implementations that hand the message to another goroutine or defer
	// the transfer must copy it first. The borrowck analyzer enforces this
	// in every implementation through the annotation below.
	//
	//ham:borrowed msg
	Call(target NodeID, msg []byte) (Handle, error)
	// Wait blocks until the response for h arrives and returns it. The
	// response is borrowed: it is valid until the caller's next call into
	// this backend, which may reuse its memory for another message (the
	// slot ring recycles a handle and its result buffer once the result is
	// handed out), so a caller that keeps it copies it. A handle whose
	// response Wait or Poll has returned is spent.
	//
	//ham:borrowed return
	Wait(h Handle) ([]byte, error)
	// Poll checks for the response without blocking. A response it returns
	// is borrowed, and its handle spent, as with Wait.
	//
	//ham:borrowed return
	Poll(h Handle) (resp []byte, done bool, err error)

	// Put writes data into target memory at dstAddr (Table II's put). data
	// is the caller's own element memory (core.Put passes no copy): Put must
	// finish reading it before returning and may not retain it.
	Put(target NodeID, data []byte, dstAddr uint64) error
	// Get reads len(dst) bytes from target memory at srcAddr (Table II's
	// get). dst is the caller's own element memory: Get must finish writing
	// it before returning, may not retain it, and writes nothing when it fails.
	Get(target NodeID, srcAddr uint64, dst []byte) error

	// Serve runs the target-side message loop: receive, dispatch, respond,
	// until the server reports Done (a terminate message executed).
	Serve(s Server) error

	// Memory returns this node's local memory.
	Memory() LocalMemory

	// Clock returns this node's clock. The runtime asks once, at NewRuntime;
	// return the same value every time.
	Clock() Clock

	// MaxMessageLen bounds one wire message to Call (the slot protocols cap
	// it at min(BufSize, slots.MaxLen)); the batcher splits frames at it.
	MaxMessageLen() int

	// RecoverNode re-establishes the connection to a failed node (destroy
	// the dead VE process, boot a fresh one, rerun protocol setup). A
	// backend that cannot wraps ErrUnsupported.
	RecoverNode(n NodeID) error

	// Close releases backend resources on the initiator side.
	Close() error
}

// TargetOnly supplies the initiator half of Backend for a node that only
// serves: embed it in a target-side backend.
type TargetOnly struct{}

func (TargetOnly) Call(NodeID, []byte) (Handle, error) { return nil, ErrTargetOnly }
func (TargetOnly) Wait(Handle) ([]byte, error)         { return nil, ErrTargetOnly }
func (TargetOnly) Poll(Handle) ([]byte, bool, error)   { return nil, false, ErrTargetOnly }
func (TargetOnly) Put(NodeID, []byte, uint64) error    { return ErrTargetOnly }
func (TargetOnly) Get(NodeID, uint64, []byte) error    { return ErrTargetOnly }
func (TargetOnly) RecoverNode(NodeID) error            { return ErrTargetOnly }

// MaxMessageLen is 0: a node that cannot call can send nothing.
func (TargetOnly) MaxMessageLen() int { return 0 }

// HostOnly supplies the serving half of Backend for a node that only
// initiates: embed it in a host-side backend.
type HostOnly struct{}

func (HostOnly) Serve(Server) error { return ErrHostOnly }

// Server is what a Backend's Serve loop drives; the Runtime implements it.
type Server interface {
	// Dispatch executes one wire message and returns the wire response. The
	// response may alias the server's scratch buffers and is only valid
	// until the next Dispatch call on this server: serve loops must copy or
	// fully consume it (write it to the transport) before dispatching the
	// next message. Both directions are enforced by borrowck: msg is
	// borrowed for the duration of the call, the response is borrowed until
	// the next Dispatch.
	//
	//ham:borrowed msg return
	Dispatch(msg []byte) []byte
	// Done reports whether a terminate message has been executed.
	Done() bool
}

// Runtime is one node's HAM-Offload runtime instance.
type Runtime struct {
	backend Backend
	clock   Clock // the backend's, resolved once
	bin     *ham.Binary
	tr      *trace.NodeTracer // nil disables lifecycle tracing

	terminated bool
	offloads   int64 // initiated offloads, for stats
	executed   int64 // executed messages, for stats

	// Fault tolerance (see ft.go). ft zero = off; seq numbers envelopes on
	// the initiator; dedup is the target-side at-most-once window, created
	// lazily on the first enveloped request.
	ft      FaultTolerance
	seq     uint64
	dedup   *respCache
	retries int64

	// Message batching (see batch.go). The zero policy is off: every
	// offload travels as its own wire message, bit-identical to before.
	batch BatchPolicy

	// Gray-failure resilience (see resilience.go). hedge zero = off; budget
	// zero = unbudgeted. buckets are the per-target token buckets, built
	// lazily on the first armed spend; strays hold abandoned hedge-loser
	// handles until their late responses drain.
	hedge        HedgePolicy
	budget       RetryBudget
	buckets      []TokenBucket
	strays       []Handle
	hedges       int64
	hedgeWins    int64
	budgetDenied int64

	// Continuous telemetry on tr (see telemetry.go): curFlow is the trace
	// ID of the offload currently being encoded, lastFlow the most recently
	// issued one (for scheduler placement events); inflight counts open
	// offloads per target node for the gauge series (the last entry: any
	// other node); execNames, built when a tracer is first attached, names
	// each key's execute span.
	curFlow   uint64
	lastFlow  uint64
	inflight  []int64
	execNames []string

	// Hot-path scratch (see DESIGN.md §8). ctx is the one
	// execution context handed to every handler; respDec settles futures
	// without a per-response decoder; batchScratch is the arena a batch
	// response frame is built in (stolen for the duration of a dispatch so
	// nested frames fall back to fresh buffers); subsScratch backs batch
	// frame splitting the same way; calls, hooks (settle-hook chain nodes)
	// and batchers are pools; raw is the sink Sync and callSync resolve into.
	ctx          Ctx
	respDec      ham.Decoder
	batchScratch []byte
	subsScratch  [][]byte
	calls        pool.Free[call, *call]
	hooks        pool.Free[hookChain, *hookChain]
	batchers     pool.Free[Batcher, *Batcher]
	raw          rawSink
}

// NewRuntime creates the runtime for one node. arch labels this node's
// "binary" for the heterogeneous address-translation tables; the host and
// target of one application must use different arch strings to model the
// differing code layouts, and all message/function registration must happen
// before the first NewRuntime of the application.
func NewRuntime(b Backend, arch string) *Runtime {
	rt := &Runtime{backend: b, clock: b.Clock(), bin: ham.NewBinary(arch)}
	rt.ctx.rt = rt
	return rt
}

// Backend returns the node's communication backend.
func (rt *Runtime) Backend() Backend { return rt.backend }

// Clock returns the node's clock: host-side kernel work is charged here, as
// Ctx.ChargeVector charges a target's.
func (rt *Runtime) Clock() Clock { return rt.clock }

// SimNow reads the node's clock (0 forever on a wall-clock node). Health
// trackers, schedulers and the gateway timestamp with it.
func (rt *Runtime) SimNow() simtime.Time { return rt.clock.Now() }

// Binary returns the node's HAM binary (message table).
func (rt *Runtime) Binary() *ham.Binary { return rt.bin }

// ThisNode returns this process's address (Table II's this_node).
func (rt *Runtime) ThisNode() NodeID { return rt.backend.Self() }

// NumNodes returns the process count (Table II's num_nodes).
func (rt *Runtime) NumNodes() int { return rt.backend.NumNodes() }

// GetNodeDescriptor returns a node's descriptor (Table II).
func (rt *Runtime) GetNodeDescriptor(n NodeID) NodeDescriptor {
	return rt.backend.Descriptor(n)
}

// SetTracer attaches a per-node trace handle. The runtime then records
// lifecycle spans (offload, encode, execute) tagged with this node's id and
// a per-runtime message id, plus the time series, SLO latencies and — with
// flows armed — causal records of telemetry.go into the handle's Tracer.
// The host and target runtimes of one application should share a Tracer so
// causal records span nodes. A nil handle (the default) disables all of it
// at the cost of one nil check per instrumentation site.
func (rt *Runtime) SetTracer(nt *trace.NodeTracer) {
	rt.tr = nt
	if nt != nil && rt.execNames == nil {
		rt.execNames = rt.bin.Labels(execPrefix)
	}
}

const execPrefix = "execute " // an execute span's name: the prefix, then the message's

// Tracer returns the attached trace handle (nil when tracing is off).
func (rt *Runtime) Tracer() *trace.NodeTracer { return rt.tr }

// Executed returns how many messages this runtime has executed.
func (rt *Runtime) Executed() int64 { return rt.executed }

// OpenCalls returns how many wire messages the runtime holds open: posted
// and not yet settled, or a batch frame still filling. Zero at rest — every
// call is back in its pool — unless a future was never harvested.
func (rt *Runtime) OpenCalls() int { return rt.calls.Live() }

// Strays returns how many abandoned hedge-loser handles the runtime holds
// until their late responses drain; the backend has not handed those
// results out.
func (rt *Runtime) Strays() int { return len(rt.strays) }

// Dispatch implements Server: it executes one incoming active message
// against this runtime. With tracing attached it wraps the handler in a
// PhaseExecute span named after the message type, so every backend's
// target side reports execution uniformly.
//
// Fault-tolerant (enveloped) requests are validated and deduplicated here,
// transparently to the backends: a failed checksum draws a NACK without
// touching the handler, and a retransmitted sequence number is answered
// from the dedup window — the handler runs at most once per offload no
// matter how often the initiator had to retry.
//
// Batch frames (see batch.go) unpack here too: each entry re-enters
// Dispatch individually, so enveloping and dedup compose with batching.
// Armed causal flows find the message's trace IDs where the transport, or
// for an entry dispatchBatch, left them (trace.Arrived).
//
// The returned response may alias per-runtime scratch buffers; it is valid
// only until the next Dispatch on this runtime (see Server).
func (rt *Runtime) Dispatch(msg []byte) []byte {
	var fids []uint64 // one, or a batch frame's in entry order
	if rt.tr != nil {
		fids = rt.tr.Tracer().Swap(int(rt.ThisNode()), trace.Arrived, nil)
	}
	// The split scratch is stolen for the duration of the batch dispatch so
	// a (hostile) nested batch entry splits into a fresh slice instead of
	// corrupting the outer frame's entry list.
	scratch := rt.subsScratch
	rt.subsScratch = nil
	if subs, isBatch, berr := openBatchInto(scratch[:0], msg); isBatch {
		resp := rt.dispatchBatch(subs, berr, fids)
		rt.subsScratch = subs[:0]
		return resp
	}
	rt.subsScratch = scratch
	var fid uint64
	if len(fids) > 0 {
		fid = fids[0]
	}
	_, seq, payload, enveloped, cerr := openMessage(msg)
	if !enveloped {
		return rt.dispatchRaw(msg, fid)
	}
	if cerr != nil {
		rt.tr.Instant(trace.PhaseFault, "corrupt request", rt.executed)
		rt.tr.Count("dispatch.corrupt", 1)
		return sealMessage(envNack, 0, nil)
	}
	if rt.dedup == nil {
		rt.dedup = newRespCache()
	}
	if resp, ok := rt.dedup.get(seq); ok {
		rt.tr.Count("dispatch.dedup", 1)
		return resp
	}
	sealed := sealMessage(envResponse, seq, rt.dispatchRaw(payload, fid))
	rt.dedup.put(seq, sealed)
	return sealed
}

// dispatchRaw executes one bare active message, where offload fid's execute
// step is recorded: no copy the envelope rejected or the dedup window
// answered gets here, and a key no handler has runs nothing.
//
//ham:borrowed msg return
func (rt *Runtime) dispatchRaw(msg []byte, fid uint64) []byte {
	rt.executed++
	if rt.tr == nil {
		return rt.bin.Dispatch(rt, msg)
	}
	name := "execute (unknown)"
	if k := ham.MessageKey(msg); int(k) < len(rt.execNames) {
		name = rt.execNames[k]
		rt.tr.Tracer().Event(fid, rt.clock.Now(), int(rt.ThisNode()), trace.FlowExecute, name[len(execPrefix):])
	}
	id, start := rt.executed, rt.tr.Now()
	resp := rt.bin.Dispatch(rt, msg)
	rt.tr.Since(trace.PhaseExecute, name, id, start)
	return resp
}

// Done implements Server.
func (rt *Runtime) Done() bool { return rt.terminated }

// Serve runs this node's message-processing loop until terminated — the
// body of ham_main on an offload target (§III-C).
func (rt *Runtime) Serve() error {
	return rt.backend.Serve(rt)
}

// beginOffload opens the whole-lifecycle span for the next offload to node
// and returns the closure that closes it when the offload settles. With a
// tracer attached it opens the PhaseOffload span, bumps the target's
// in-flight gauge, allocates the offload's causal trace ID (flows armed),
// and — in the returned closure — feeds the issue-to-settle latency to the
// SLO tracker. Without one it is a no-op.
func (rt *Runtime) beginOffload(node NodeID, mt *msgType) func() {
	if rt.tr == nil {
		return func() {}
	}
	id, spanStart := rt.offloads+1, rt.tr.Now()
	tr := rt.tr.Tracer()
	start := rt.clock.Now()
	var fid uint64
	if tr.FlowsEnabled() {
		fid = tr.NextTraceID()
		tr.Event(fid, start, int(rt.ThisNode()), trace.FlowIssue, mt.name)
	}
	rt.curFlow, rt.lastFlow = fid, fid
	if rt.inflight == nil {
		rt.inflight = make([]int64, rt.NumNodes()+1)
	}
	open := &rt.inflight[min(uint(node), uint(len(rt.inflight)-1))]
	*open++
	tr.Gauge(int(node), trace.SeriesInflight, start, *open)
	return func() {
		rt.tr.Since(trace.PhaseOffload, mt.offload, id, spanStart)
		end := rt.clock.Now()
		*open--
		tr.Gauge(int(node), trace.SeriesInflight, end, *open)
		tr.ObserveLatency(end, end.Sub(start))
		tr.Event(fid, end, int(rt.ThisNode()), trace.FlowSettle, mt.name)
	}
}

// encode builds the wire message of one offload in enc: it validates the
// target, encodes a request of type mt (the key, then args, the arguments a
// functor or a control message already holds encoded) and — as the policy
// asks — seals it in the fault-tolerance envelope (the returned pending
// carries the retransmission state). fid is the offload's causal trace ID,
// 0 without armed flows. The wire may be enc's buffer, valid until enc is
// next written.
func (rt *Runtime) encode(enc *ham.Encoder, node NodeID, mt *msgType, args []byte) (wire []byte, pd *pending, fid uint64, err error) {
	if node == rt.ThisNode() {
		return nil, nil, 0, errOffloadSelf(node)
	}
	if int(node) < 0 || int(node) >= rt.NumNodes() {
		return nil, nil, 0, errNoNode(node, rt.NumNodes())
	}
	start := rt.tr.Now()
	msg, err := rt.bin.EncodeRequestTo(enc, mt.typ, args)
	rt.tr.Since(trace.PhaseEncode, mt.encode, rt.offloads+1, start)
	if err != nil {
		return nil, nil, 0, err
	}
	rt.offloads++
	wire, pd = rt.seal(node, msg)
	if pd != nil && mt.pinned {
		pd.pinned, pd.last = true, mt == msgTerminate
	}
	fid, rt.curFlow = rt.curFlow, 0
	return wire, pd, fid, nil
}

// callAsync posts a message of type mt as a call of one, encoded into the
// call's own encoder, and returns it; s receives the response payload or
// the failure, at once when the message cannot be built or posted.
func (rt *Runtime) callAsync(node NodeID, mt *msgType, args []byte, s sink) *call {
	c := rt.takeCall()
	c.sinks = append(c.sinks, s)
	wire, pd, fid, err := rt.encode(&c.enc, node, mt, args)
	if err != nil {
		c.failAll(err)
		return c
	}
	var fids []uint64
	if fid != 0 {
		fids = []uint64{fid}
		if pd != nil {
			pd.fids = fids
		}
	}
	c.pd = pd
	if err := c.post(node, wire, fids); err != nil {
		c.failAll(err)
	}
	return c
}

// errOffloadSelf and errNoNode render the target-validation failures; split
// out of encode so the successful offload path carries no formatting.
func errOffloadSelf(node NodeID) error {
	return fmt.Errorf("core: offload to self (node %d) is not supported", node)
}

func errNoNode(node NodeID, n int) error {
	return fmt.Errorf("core: no node %d in this application (%d nodes)", node, n)
}

// resolveSync posts a message of type mt and waits for it, settling into s,
// which it marks busy: the returned decoder reads the response payload in
// place, so decode it before the next offload, then clear s.busy.
func (rt *Runtime) resolveSync(s *rawSink, node NodeID, mt *msgType, args []byte) (*ham.Decoder, error) {
	s.busy, s.done, s.err = true, false, nil
	c := rt.callAsync(node, mt, args, sink{s: s})
	if !s.done {
		c.resolve()
	}
	if s.err != nil {
		return nil, s.err
	}
	return &s.dec, nil
}

// callSync posts the message and waits for its response payload, settling
// into the runtime's own raw sink rather than a typed future — or, while a
// synchronous offload is resolving into that one, into a sink of its own.
// Decode the payload before the next offload.
func (rt *Runtime) callSync(node NodeID, mt *msgType, args []byte) (*ham.Decoder, error) {
	defer rt.beginOffload(node, mt)()
	s := &rt.raw
	if s.busy {
		s = &rawSink{}
	}
	dec, err := rt.resolveSync(s, node, mt, args)
	s.busy = false
	return dec, err
}

// Finalize sends terminate messages to all other nodes and closes the
// backend. Call it on the host once the application is done.
func (rt *Runtime) Finalize() error {
	var firstErr error
	for n := 0; n < rt.NumNodes(); n++ {
		if NodeID(n) == rt.ThisNode() {
			continue
		}
		if _, err := rt.callSync(NodeID(n), msgTerminate, nil); err != nil && err != errTerminated && firstErr == nil {
			firstErr = fmt.Errorf("core: terminating node %d: %w", n, err)
		}
	}
	if err := rt.backend.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
