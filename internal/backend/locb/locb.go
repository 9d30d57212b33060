// Package locb is the in-process loopback communication backend: host and
// target are goroutines in one OS process connected by channels, with a
// plain heap as target memory. It exists to exercise the HAM-Offload
// runtime, protocol bookkeeping and user code without the machine
// simulation, and serves as the reference Backend implementation.
package locb

import (
	"fmt"
	"sync"

	"hamoffload/internal/core"
	"hamoffload/internal/faults"
	"hamoffload/internal/mem"
	"hamoffload/internal/trace"
)

type request struct {
	msg  []byte
	fids []uint64 // msg's causal trace IDs, for the target's Dispatch
	resp chan []byte
}

// life is the liveness table shared by all nodes of one loopback
// application: a dead flag and a broadcast down-channel per node. Closing
// the down channel releases every select blocked on that node — its serve
// loop and all of its waiters — at once.
type life struct {
	mu   sync.Mutex
	dead []bool
	down []chan struct{}
}

func newLife(n int) *life {
	lf := &life{dead: make([]bool, n), down: make([]chan struct{}, n)}
	for i := range lf.down {
		lf.down[i] = make(chan struct{})
	}
	return lf
}

func (lf *life) downCh(n core.NodeID) chan struct{} {
	lf.mu.Lock()
	defer lf.mu.Unlock()
	return lf.down[n]
}

func (lf *life) killed(n core.NodeID) bool {
	lf.mu.Lock()
	defer lf.mu.Unlock()
	return lf.dead[n]
}

func (lf *life) kill(n core.NodeID) {
	lf.mu.Lock()
	defer lf.mu.Unlock()
	if !lf.dead[n] {
		lf.dead[n] = true
		close(lf.down[n])
	}
}

func (lf *life) revive(n core.NodeID) {
	lf.mu.Lock()
	defer lf.mu.Unlock()
	if lf.dead[n] {
		lf.dead[n] = false
		lf.down[n] = make(chan struct{})
	}
}

// Node is one side of a loopback application.
type Node struct {
	self  core.NodeID
	descs []core.NodeDescriptor
	heaps []*core.Heap
	chans []chan request // chans[n] is the inbox of node n
	life  *life
	inj   *faults.Injector
	nt    *trace.NodeTracer
	calls int64 // message correlator for this node's outgoing calls
}

// SetFaultInjector arms connection-level fault injection: SiteConn transfer
// errors fail individual Call attempts (transiently, so core's retry layer
// may resubmit). This backend runs on the wall clock, so only rate- and
// op-scheduled rules apply.
func (b *Node) SetFaultInjector(inj *faults.Injector) { b.inj = inj }

// Kill marks node n failed: its serve loop returns, every pending waiter
// fails with core.ErrNodeFailed, and new offloads to it are rejected until
// RecoverNode.
func (b *Node) Kill(n core.NodeID) { b.life.kill(n) }

// MaxMessageLen implements core.Backend. The in-process channels have
// no framing limit of their own; the bound keeps batch frames within what
// any slot-protocol backend could also carry, so applications tested on
// loopback do not silently depend on unbounded messages.
func (b *Node) MaxMessageLen() int { return 1 << 20 }

// RecoverNode implements core.Backend: it revives a killed node and drains
// stale requests from its inbox. The application must restart the node's
// Serve loop afterwards (in-process, the "machine" is a goroutine).
func (b *Node) RecoverNode(n core.NodeID) error {
	if int(n) < 0 || int(n) >= len(b.chans) {
		return fmt.Errorf("locb: no node %d", n)
	}
	for {
		select {
		case req := <-b.chans[n]:
			_ = req // the caller already saw ErrNodeFailed via the down channel
		default:
			b.life.revive(n)
			return nil
		}
	}
}

// SetTracer attaches a wall-clock trace handle for this node's protocol
// spans. Call it before the first offload / Serve.
func (b *Node) SetTracer(tr *trace.Tracer, clock trace.Clock) {
	b.nt = tr.Node(int(b.self), "locb", clock)
}

// NewPair creates a two-node loopback application (host node 0, target
// node 1) with heapSize bytes of memory per node.
func NewPair(heapSize int64) (*Node, *Node, error) {
	return newN(2, heapSize)
}

// NewN creates an n-node loopback application. Node 0 is the host.
func NewN(n int, heapSize int64) ([]*Node, error) {
	if n < 2 {
		return nil, fmt.Errorf("locb: need at least 2 nodes, got %d", n)
	}
	host, target, err := newN(n, heapSize)
	if err != nil {
		return nil, err
	}
	nodes := []*Node{host, target}
	for i := 2; i < n; i++ {
		nodes = append(nodes, &Node{
			self:  core.NodeID(i),
			descs: host.descs,
			heaps: host.heaps,
			chans: host.chans,
			life:  host.life,
		})
	}
	return nodes, nil
}

func newN(n int, heapSize int64) (*Node, *Node, error) {
	descs := make([]core.NodeDescriptor, n)
	heaps := make([]*core.Heap, n)
	chans := make([]chan request, n)
	for i := 0; i < n; i++ {
		role, arch := "target", "loopback-target"
		if i == 0 {
			role, arch = "host", "loopback-host"
		}
		descs[i] = core.NodeDescriptor{
			Name:   fmt.Sprintf("loc%d", i),
			Arch:   arch,
			Device: role,
		}
		var err error
		if heaps[i], err = core.NewHeap(fmt.Sprintf("locb%d", i), heapSize); err != nil {
			return nil, nil, err
		}
		chans[i] = make(chan request, 64)
	}
	lf := newLife(n)
	mk := func(self int) *Node {
		return &Node{self: core.NodeID(self), descs: descs, heaps: heaps, chans: chans, life: lf}
	}
	return mk(0), mk(1), nil
}

// Self implements core.Backend.
func (b *Node) Self() core.NodeID { return b.self }

// NumNodes implements core.Backend.
func (b *Node) NumNodes() int { return len(b.chans) }

// Descriptor implements core.Backend.
func (b *Node) Descriptor(n core.NodeID) core.NodeDescriptor {
	if int(n) < 0 || int(n) >= len(b.descs) {
		return core.NodeDescriptor{Name: "invalid"}
	}
	return b.descs[n]
}

// handle is one in-flight offload; it remembers the target so waiters can
// watch its down channel alongside the response.
type handle struct {
	resp   chan []byte
	target core.NodeID
}

// Call implements core.Backend.
func (b *Node) Call(target core.NodeID, msg []byte) (core.Handle, error) {
	if int(target) < 0 || int(target) >= len(b.chans) {
		return nil, fmt.Errorf("locb: no node %d", target)
	}
	if b.life.killed(target) {
		return nil, fmt.Errorf("locb: node %d: %w", target, core.ErrNodeFailed)
	}
	if err := b.inj.TransferError(0, faults.SiteConn, int(target)); err != nil {
		return nil, err
	}
	b.calls++
	defer b.nt.Begin(trace.PhaseCall, "locb-call", b.calls)()
	// Call must not retain msg past return (it may alias the initiator's
	// scratch buffers); the serving goroutine reads it asynchronously, so it
	// gets its own copy.
	req := request{msg: append([]byte(nil), msg...), resp: make(chan []byte, 1)}
	if b.nt != nil {
		req.fids = b.nt.Tracer().Swap(int(b.self), trace.Posted, nil)
	}
	b.chans[target] <- req
	return &handle{resp: req.resp, target: target}, nil
}

// Wait implements core.Backend.
func (b *Node) Wait(h core.Handle) ([]byte, error) {
	hd, ok := h.(*handle)
	if !ok {
		return nil, fmt.Errorf("locb: foreign handle %T", h)
	}
	defer b.nt.Begin(trace.PhaseWait, "locb-wait", b.calls)()
	// A response that already arrived wins over a later node failure.
	select {
	case resp := <-hd.resp:
		return resp, nil
	default:
	}
	select {
	case resp := <-hd.resp:
		return resp, nil
	case <-b.life.downCh(hd.target):
		return nil, fmt.Errorf("locb: node %d: %w", hd.target, core.ErrNodeFailed)
	}
}

// Poll implements core.Backend.
func (b *Node) Poll(h core.Handle) ([]byte, bool, error) {
	hd, ok := h.(*handle)
	if !ok {
		return nil, false, fmt.Errorf("locb: foreign handle %T", h)
	}
	select {
	case resp := <-hd.resp:
		return resp, true, nil
	default:
	}
	select {
	case <-b.life.downCh(hd.target):
		return nil, false, fmt.Errorf("locb: node %d: %w", hd.target, core.ErrNodeFailed)
	default:
		return nil, false, nil
	}
}

// Put implements core.Backend by writing straight into the target heap.
func (b *Node) Put(target core.NodeID, data []byte, dstAddr uint64) error {
	if int(target) < 0 || int(target) >= len(b.heaps) {
		return fmt.Errorf("locb: no node %d", target)
	}
	return b.heaps[target].WriteAt(data, mem.Addr(dstAddr))
}

// Get implements core.Backend.
func (b *Node) Get(target core.NodeID, srcAddr uint64, dst []byte) error {
	if int(target) < 0 || int(target) >= len(b.heaps) {
		return fmt.Errorf("locb: no node %d", target)
	}
	return b.heaps[target].ReadAt(dst, mem.Addr(srcAddr))
}

// Serve implements core.Backend: the target message loop. It returns with
// core.ErrNodeFailed when the node is killed.
func (b *Node) Serve(s core.Server) error {
	inbox := b.chans[b.self]
	var served int64
	for !s.Done() {
		pollStart := b.nt.Now()
		var req request
		select {
		case req = <-inbox:
		case <-b.life.downCh(b.self):
			return fmt.Errorf("locb: node %d killed: %w", b.self, core.ErrNodeFailed)
		}
		served++
		b.nt.Since(trace.PhasePoll, "locb-recv", served, pollStart)
		if b.nt != nil {
			b.nt.Tracer().Swap(int(b.self), trace.Arrived, req.fids)
		}
		resp := s.Dispatch(req.msg)
		endResult := b.nt.Begin(trace.PhaseResult, "locb-result", served)
		// The response is only valid until the next Dispatch on s; the
		// initiator consumes it asynchronously, so it ships as a copy.
		req.resp <- append([]byte(nil), resp...)
		endResult()
	}
	return nil
}

// Memory implements core.Backend.
func (b *Node) Memory() core.LocalMemory { return b.heaps[b.self] }

// Clock implements core.Backend: loopback nodes run in real time.
func (b *Node) Clock() core.Clock { return core.WallClock }

// Close implements core.Backend.
func (b *Node) Close() error { return nil }

var _ core.Backend = (*Node)(nil)
