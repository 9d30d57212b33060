// Package mpib implements the remote-offloading backend the paper's outlook
// (§VI) anticipates: "As soon as NEC's MPI will support heterogeneous jobs,
// that are combining processes running on the host and on the Vector
// Engines, HAM-Offload applications will also benefit from remote offloading
// capabilities, again without changes in the application code."
//
// The backend spans several simulated SX-Aurora nodes connected by the
// InfiniBand fabric of Fig. 3: node 0 is the Vector Host of the first
// machine; the Vector Engines of all machines follow machine-major. Local
// VEs are driven directly through the DMA protocol (backend/dmab); offloads
// to a remote machine's VEs travel over IB to a proxy rank on that machine's
// VH, which forwards them through its own local DMA-protocol connection —
// the hybrid-MPI execution model, with HAM's handler keys staying globally
// valid across every binary involved.
package mpib

import (
	"bytes"
	"fmt"

	"hamoffload/internal/backend/dmab"
	"hamoffload/internal/core"
	"hamoffload/internal/ib"
	"hamoffload/internal/simtime"
	"hamoffload/internal/trace"
	"hamoffload/internal/veos"
)

// reqKind discriminates proxy requests.
type reqKind int

const (
	reqCall reqKind = iota
	reqPut
	reqGet
	reqShutdown
)

// request is one forwarded operation, delivered to a proxy's queue after the
// IB transfer of its payload completed.
type request struct {
	kind   reqKind
	target core.NodeID // node id local to the proxy's machine
	msg    []byte      // call message or put data
	addr   uint64      // put/get address
	getLen int64
	mid    int64 // trace correlator

	done *simtime.Event
	resp []byte
	err  error
}

// wire sizes: a small header accompanies every forwarded operation.
const headerBytes = 64

// Options configures the cluster backend. The InfiniBand model itself is a
// property of the fabric passed to Connect.
type Options struct {
	// Local holds the protocol options for each machine's DMA-protocol
	// connection.
	Local dmab.Options
}

// Host is the initiator backend on machine 0's VH.
type Host struct {
	core.HostOnly

	p      *simtime.Proc
	fabric *ib.Fabric
	local  *dmab.Host // machine 0's VEs

	// node translation: global node -> (machine, local node)
	perMachine []int // VEs per machine
	descs      []core.NodeDescriptor

	proxies []*proxy // index 1.. for machines 1..; index 0 nil
	mem     core.LocalMemory

	nt   *trace.NodeTracer
	seqs int64 // correlator for forwarded (remote) requests
}

// proxy is the forwarding rank on one remote machine's VH.
type proxy struct {
	machine int
	queue   *simtime.Queue[*request]
	fabric  *ib.Fabric
	// p and inner are the rank's process and its machine's own DMA-protocol
	// connection, set once the rank has connected.
	p       *simtime.Proc
	inner   *dmab.Host
	stopped bool
}

// Connect builds the cluster application: machine 0 hosts the initiator,
// every machine's cards become targets. cards[i] lists machine i's VE cards;
// the shared engine must drive all machines and the IB fabric.
func Connect(p *simtime.Proc, eng *simtime.Engine, fabric *ib.Fabric,
	cards [][]*veos.Card, opts Options) (*Host, error) {
	if len(cards) < 1 || len(cards[0]) == 0 {
		return nil, fmt.Errorf("mpib: machine 0 needs at least one VE")
	}
	if fabric.Hosts() < len(cards) {
		return nil, fmt.Errorf("mpib: fabric has %d hosts for %d machines", fabric.Hosts(), len(cards))
	}
	h := &Host{p: p, fabric: fabric}
	h.nt = cards[0][0].Timing.Tracer.Node(0, "mpib", p)
	h.mem = cards[0][0].Host.Heap
	h.descs = append(h.descs, core.NodeDescriptor{
		Name: "vh0", Arch: "x86_64", Device: "Vector Host, machine 0",
	})

	total := 1
	for _, mc := range cards {
		total += len(mc)
	}

	// Machine 0: direct local connection with global node ids 1..k.
	localOpts := opts.Local
	localOpts.NodeBase = 0
	localOpts.TotalNodes = total
	local, err := dmab.Connect(p, cards[0], localOpts)
	if err != nil {
		return nil, fmt.Errorf("mpib: local connect: %w", err)
	}
	h.local = local
	h.perMachine = append(h.perMachine, len(cards[0]))
	for i, card := range cards[0] {
		h.descs = append(h.descs, core.NodeDescriptor{
			Name:   fmt.Sprintf("m0-ve%d", card.ID),
			Arch:   localArch(opts),
			Device: fmt.Sprintf("NEC VE Type 10B (machine 0, VE %d)", i),
		})
	}

	// Remote machines: spawn a proxy rank per machine, which connects its
	// own VEs and then serves forwarded requests.
	h.proxies = make([]*proxy, len(cards))
	for m := 1; m < len(cards); m++ {
		if len(cards[m]) == 0 {
			return nil, fmt.Errorf("mpib: machine %d has no VEs", m)
		}
		px := &proxy{
			machine: m,
			queue:   simtime.NewQueue[*request](eng, fmt.Sprintf("mpib-proxy%d", m)),
			fabric:  fabric,
		}
		h.proxies[m] = px
		ready := simtime.NewEvent(eng)
		var connErr error
		mcards := cards[m]
		remoteOpts := opts.Local
		remoteOpts.NodeBase = len(h.descs) - 1 // nodes assigned so far, minus the host
		remoteOpts.TotalNodes = total
		eng.Spawn(fmt.Sprintf("mpib-proxy%d", m), func(pp *simtime.Proc) {
			inner, err := dmab.Connect(pp, mcards, remoteOpts)
			if err != nil {
				connErr = err
				ready.Fire()
				return
			}
			px.p, px.inner = pp, inner
			ready.Fire()
			px.serve()
		})
		ready.Wait(p)
		if connErr != nil {
			return nil, fmt.Errorf("mpib: machine %d connect: %w", m, connErr)
		}
		h.perMachine = append(h.perMachine, len(mcards))
		for i, card := range mcards {
			h.descs = append(h.descs, core.NodeDescriptor{
				Name:   fmt.Sprintf("m%d-ve%d", m, card.ID),
				Arch:   localArch(opts),
				Device: fmt.Sprintf("NEC VE Type 10B (machine %d, VE %d)", m, i),
			})
		}
	}
	return h, nil
}

func localArch(opts Options) string {
	if opts.Local.TargetArch != "" {
		return opts.Local.TargetArch
	}
	return "aurora-ve"
}

// route returns the machine hosting a global node id. Node ids are global
// throughout the cluster (each machine's dmab connection is configured with
// its NodeBase), so no per-machine renumbering is needed.
func (h *Host) route(n core.NodeID) (int, core.NodeID, error) {
	if n <= 0 {
		return 0, 0, fmt.Errorf("mpib: node %d is not an offload target", n)
	}
	rest := int(n) - 1
	for m, count := range h.perMachine {
		if rest < count {
			return m, n, nil
		}
		rest -= count
	}
	return 0, 0, fmt.Errorf("mpib: no node %d in this cluster", n)
}

// Self implements core.Backend.
func (h *Host) Self() core.NodeID { return 0 }

// NumNodes implements core.Backend.
func (h *Host) NumNodes() int { return len(h.descs) }

// Descriptor implements core.Backend.
func (h *Host) Descriptor(n core.NodeID) core.NodeDescriptor {
	if int(n) < 0 || int(n) >= len(h.descs) {
		return core.NodeDescriptor{Name: "invalid"}
	}
	return h.descs[n]
}

// Call implements core.Backend: local targets go straight to the DMA
// protocol; remote targets are forwarded over InfiniBand to the machine's
// proxy rank.
func (h *Host) Call(target core.NodeID, msg []byte) (core.Handle, error) {
	m, local, err := h.route(target)
	if err != nil {
		return nil, err
	}
	if m == 0 {
		return h.local.Call(local, msg)
	}
	return h.callRemote(m, local, msg)
}

// callRemote is Call for a target on machine m. The proxy rank reads the
// request after the simulated IB transfer, long after Call returned; msg may
// alias the initiator's scratch buffers, so the forwarded request carries
// its own copy. The request, that copy and its completion event are the
// remote protocol's per-offload state: the zero-alloc request path is the
// slot ring's, which the local targets take.
func (h *Host) callRemote(m int, local core.NodeID, msg []byte) (core.Handle, error) {
	h.seqs++
	rq := &request{
		kind:   reqCall,
		target: local,
		msg:    append([]byte(nil), msg...),
		mid:    h.seqs,
		done:   simtime.NewEvent(h.p.Engine()),
	}
	callStart := h.nt.Now()
	if err := h.forward(m, rq, int64(len(msg))+headerBytes); err != nil {
		return nil, err
	}
	h.nt.Since(trace.PhaseCall, "mpib-call", rq.mid, callStart)
	return rq, nil
}

// forward ships a request to machine m's proxy: the IB transfer completes
// before the request becomes visible there.
func (h *Host) forward(m int, rq *request, bytes int64) error {
	if err := h.fabric.Send(h.p, 0, m, bytes); err != nil {
		return err
	}
	h.proxies[m].queue.Push(rq)
	return nil
}

// Wait implements core.Backend.
func (h *Host) Wait(hh core.Handle) ([]byte, error) {
	if v, ok := hh.(*request); ok {
		return h.waitRemote(v)
	}
	return h.local.Wait(hh)
}

// waitRemote is Wait for a forwarded offload: it parks on the request's
// completion event, the remote protocol's per-offload state (callRemote).
func (h *Host) waitRemote(rq *request) ([]byte, error) {
	defer h.nt.Begin(trace.PhaseWait, "mpib-wait", rq.mid)()
	rq.done.Wait(h.p)
	return rq.resp, rq.err
}

// Poll implements core.Backend.
func (h *Host) Poll(hh core.Handle) ([]byte, bool, error) {
	switch v := hh.(type) {
	case *request:
		// A remote status check costs a host-side progress call.
		h.p.Sleep(200 * simtime.Nanosecond)
		if !v.done.Fired() {
			return nil, false, nil
		}
		return v.resp, true, v.err
	default:
		return h.local.Poll(hh)
	}
}

// Put implements core.Backend.
func (h *Host) Put(target core.NodeID, data []byte, dstAddr uint64) error {
	m, local, err := h.route(target)
	if err != nil {
		return err
	}
	if m == 0 {
		return h.local.Put(local, data, dstAddr)
	}
	rq := &request{
		kind:   reqPut,
		target: local,
		msg:    data,
		addr:   dstAddr,
		done:   simtime.NewEvent(h.p.Engine()),
	}
	if err := h.forward(m, rq, int64(len(data))+headerBytes); err != nil {
		return err
	}
	rq.done.Wait(h.p)
	return rq.err
}

// Get implements core.Backend.
func (h *Host) Get(target core.NodeID, srcAddr uint64, dst []byte) error {
	m, local, err := h.route(target)
	if err != nil {
		return err
	}
	if m == 0 {
		return h.local.Get(local, srcAddr, dst)
	}
	rq := &request{
		kind:   reqGet,
		target: local,
		addr:   srcAddr,
		getLen: int64(len(dst)),
		done:   simtime.NewEvent(h.p.Engine()),
	}
	if err := h.forward(m, rq, headerBytes); err != nil {
		return err
	}
	rq.done.Wait(h.p)
	if rq.err != nil {
		return rq.err
	}
	copy(dst, rq.resp)
	return nil
}

// OpenHandles returns how many slot-ring handles are open across the
// cluster: the local connection's and every proxy's.
func (h *Host) OpenHandles() int {
	n := h.local.OpenHandles()
	for _, px := range h.proxies[1:] {
		n += px.inner.OpenHandles()
	}
	return n
}

// Memory implements core.Backend.
func (h *Host) Memory() core.LocalMemory { return h.mem }

// Clock implements core.Backend: the local connection runs on the same
// initiator process, so its clock is this node's.
func (h *Host) Clock() core.Clock { return h.local.Clock() }

// MaxMessageLen implements core.Backend. Local and proxied targets both
// terminate in a DMA-protocol connection, so its slot limit governs the
// whole cluster.
func (h *Host) MaxMessageLen() int { return h.local.MaxMessageLen() }

// RecoverNode implements core.Backend for machine 0's VEs by delegating to
// the local DMA-protocol connection. Remote recovery would need a proxy-side
// control message; until then it is core.ErrUnsupported.
func (h *Host) RecoverNode(n core.NodeID) error {
	m, local, err := h.route(n)
	if err != nil {
		return err
	}
	if m != 0 {
		return fmt.Errorf("mpib: recovering node %d on remote machine %d: %w", n, m, core.ErrUnsupported)
	}
	return h.local.RecoverNode(local)
}

// Close implements core.Backend: shut the proxies down, then the local
// connection. Terminate messages for the targets themselves have already
// flowed through the normal Call path during Runtime.Finalize.
func (h *Host) Close() error {
	var firstErr error
	for m := 1; m < len(h.proxies); m++ {
		rq := &request{kind: reqShutdown, done: simtime.NewEvent(h.p.Engine())}
		if err := h.forward(m, rq, headerBytes); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		rq.done.Wait(h.p)
		if rq.err != nil && firstErr == nil {
			firstErr = rq.err
		}
	}
	if err := h.local.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

var _ core.Backend = (*Host)(nil)

// reply completes rq with resp, which rq keeps, once the reply has crossed
// the fabric back to machine 0.
func (px *proxy) reply(rq *request, resp []byte, err error) {
	rq.resp = resp
	rq.err = err
	if serr := px.fabric.Send(px.p, px.machine, 0, int64(len(resp))+headerBytes); serr != nil && rq.err == nil {
		rq.err = serr
	}
	rq.done.Fire()
}

// serve is the proxy rank's event loop: it forwards calls asynchronously
// into its local DMA-protocol connection so kernels on different VEs of the
// same remote machine overlap, and replies over IB as results complete.
func (px *proxy) serve() {
	type pending struct {
		rq *request
		h  core.Handle
	}
	p, inner := px.p, px.inner
	var outstanding []pending
	const baseIdle = 300 * simtime.Nanosecond
	idle := baseIdle

	for {
		progressed := false
		if rq, ok := px.queue.TryPop(); ok {
			progressed = true
			switch rq.kind {
			case reqCall:
				hh, err := inner.Call(rq.target, rq.msg)
				if err != nil {
					px.reply(rq, nil, err)
				} else {
					outstanding = append(outstanding, pending{rq: rq, h: hh})
				}
			case reqPut:
				px.reply(rq, nil, inner.Put(rq.target, rq.msg, rq.addr))
			case reqGet:
				buf := make([]byte, rq.getLen)
				err := inner.Get(rq.target, rq.addr, buf)
				if err != nil {
					buf = nil
				}
				px.reply(rq, buf, err)
			case reqShutdown:
				err := inner.Close()
				px.stopped = true
				px.reply(rq, nil, err)
				return
			}
		}
		// Progress outstanding calls in FIFO order (deterministic).
		for i := 0; i < len(outstanding); {
			resp, done, err := inner.Poll(outstanding[i].h)
			if err != nil {
				px.reply(outstanding[i].rq, nil, err)
			} else if done {
				// The response is borrowed until the next call into inner, and
				// the request keeps it for the initiator's Wait.
				px.reply(outstanding[i].rq, bytes.Clone(resp), nil)
			} else {
				i++
				continue
			}
			outstanding = append(outstanding[:i], outstanding[i+1:]...)
			progressed = true
		}
		if progressed {
			idle = baseIdle
			continue
		}
		p.Sleep(idle)
		// Back off while fully idle, but keep polling briskly while calls
		// are in flight so completions are not reported late.
		maxIdle := 100 * simtime.Microsecond
		if len(outstanding) > 0 {
			maxIdle = 2 * simtime.Microsecond
		}
		if idle*2 <= maxIdle {
			idle *= 2
		} else {
			idle = maxIdle
		}
	}
}
