// Package ring implements, once, the slot-ring message protocol that both
// SX-Aurora backends speak (§III-D / Fig. 5 over VEO, §IV-B / Fig. 8 over
// DMA): a ring of message slots per target, the payload written first and
// the flag word — sequence number plus length, slots.Encode — published
// last, the paired result flag polled, and the slot cursor committed only
// once the flag is out. The two figures differ in where the buffers live and
// who moves the bytes; that part sits behind HostTransport and
// TargetTransport, implemented by backend/dmab and backend/veob. Everything
// with a protocol rule in it — ordering, sequence numbers, draining a slot
// before reuse, timeouts, dead-node handling, the target's serve loop — is
// here and nowhere else.
package ring

import (
	"errors"
	"fmt"

	"hamoffload/internal/backend/slots"
	"hamoffload/internal/core"
	"hamoffload/internal/pool"
	"hamoffload/internal/simtime"
	"hamoffload/internal/trace"
	"hamoffload/internal/vecore"
	"hamoffload/internal/veos"
)

// Options configures the protocol; both backends embed or alias it. The
// first three fields are the ring shape host and target must agree on: the
// init kernel carries them to the VE as three words.
type Options struct {
	// NumBuffers is the number of message slots per direction (default 8).
	NumBuffers int
	// BufSize is the capacity of one message buffer (default 4 KiB).
	BufSize int
	// ResultInline is the result payload that travels with the result flag:
	// fetched in the same veo_read_mem (VEO), pushed by SHM word stores
	// (DMA). Larger results overflow into a second transfer (default 248,
	// making flag+inline one 256-byte slot).
	ResultInline int
	// OffloadTimeout bounds how long one offload may stay in flight before
	// Wait gives up with core.ErrOffloadTimeout, measured on the simulated
	// clock from the start of the wait. Zero waits forever.
	OffloadTimeout simtime.Duration
}

func (o *Options) fill() {
	if o.NumBuffers <= 0 {
		o.NumBuffers = 8
	}
	if o.BufSize <= 0 {
		o.BufSize = 4096
	}
	if o.ResultInline <= 0 {
		o.ResultInline = 248
	}
	// SHM stores and flag adjacency work at word granularity.
	o.ResultInline = (o.ResultInline + 7) &^ 7
}

// TargetArch labels the VE binary for HAM's translation tables.
const TargetArch = "aurora-ve"

// mid builds the protocol-level message correlator for a slot/sequence
// pair; backend spans carry it so host and VE sides of one message line up.
func (o *Options) mid(slot int, seq uint32) int64 {
	return int64(seq)*int64(o.NumBuffers) + int64(slot)
}

// HostTransport moves the bytes of one host→target ring. The write methods
// are ordered by the protocol, not by the transport: Call writes the message
// and only then publishes its flag (the flagorder analyzer checks the call
// sites; a method whose name contains Flag publishes).
type HostTransport interface {
	// WriteMessage places msg in the slot's receive buffer, which the host
	// owns until the flag: its cost may be owed (simtime.Proc.Charge).
	WriteMessage(slot int, msg []byte) error
	// PublishFlag pays the host's debt and makes the slot's message visible.
	PublishFlag(slot int, word uint64) error
	// PollResult reads the slot's result flag word once. When the transport's
	// HostFacts.PollGap > 0 this is a free load: it takes no simulated time,
	// passes no fault site and changes nothing, so it may be called any
	// number of times — a notify asks it for the waiting host (resultPoll).
	PollResult(slot int) (uint64, error)
	// Watch makes what a free PollResult and Alive read notify w: the store
	// that lands a result flag, the target's crash. A transport whose polls
	// are not free (PollGap 0) has nothing to watch.
	Watch(w *simtime.Watch)
	// ReadResult copies the result PollResult just announced: the part inline
	// with the flag, then whatever went to the overflow buffer.
	ReadResult(slot int, inline, overflow []byte) error
	// Put and Get are the bulk data path (Table II's put/get), under
	// core.Backend's contract: data and dst are the caller's own memory, read
	// or written in full before the method returns and not retained after.
	Put(data []byte, dstAddr uint64) error
	Get(srcAddr uint64, dst []byte) error
	// Alive is the liveness probe made before every poll. A transport whose
	// polls fail by themselves on a dead target may always report true.
	Alive() bool
	// Close tears the target down at the end of the application; Abandon
	// releases what is left of a failed target before RecoverNode re-dials.
	Close() error
	Abandon()
}

// HostFacts are the per-target constants of the host loops.
type HostFacts struct {
	// Node names the target in its descriptor ("ve0").
	Node string
	// Overhead is the fixed framework cost of one Call and of one completed
	// Wait (HAMHostOverhead).
	Overhead simtime.Duration
	// PollGap is slept after a poll that missed and before a Poll probe.
	// Zero means the poll itself takes the time and no gap is added; above
	// zero the poll is free, under PollResult's purity contract.
	PollGap simtime.Duration
	// AbsorbPollFaults makes a transient PollResult error read as a miss,
	// marked by a <name>-poll-fault instant: the offload is unharmed and the
	// next poll retries the read.
	AbsorbPollFaults bool
}

// Dial builds the transport to the i-th target, which is node self of
// total, over a ring shaped by the (defaulted) options.
type Dial func(o Options, i, self, total int) (HostTransport, HostFacts, error)

// HostConfig describes the initiator side of one protocol instance.
type HostConfig struct {
	// Name is the protocol's short name ("dmab", "veob"): it prefixes error
	// messages and span names.
	Name string
	Options
	// NodeBase offsets the target node ids: the targets become nodes
	// NodeBase+1 .. NodeBase+n. TotalNodes overrides the application's node
	// count (default n+1).
	NodeBase, TotalNodes int
	// memory and tracer come from the first card's machine (ConnectCards).
	memory core.LocalMemory
	tracer *trace.NodeTracer // nil when tracing is off
}

// handle tracks one in-flight offload. It pins the conn it was issued on:
// after RecoverNode builds a fresh conn, stale handles must keep failing
// against the dead one instead of polling slots they never owned.
//
// Handles recycle through the Host's pool: Wait or Poll releases one
// when it hands the result to the caller, who borrows those bytes until
// its next call into the Host (core.Backend.Wait). Draining a slot for
// reuse (Call) completes a handle without releasing it — its owner has not
// asked yet — so the result waits in the handle, not in a per-slot buffer.
type handle struct {
	target core.NodeID
	c      *conn // nil while released
	slot   int
	seq    uint32
	resp   []byte
	done   bool
	pool.Link[handle]
	// small backs resp for a result that fits: a scalar result, or a batch
	// frame of a few of them. big is the buffer a larger result grew, kept
	// for the next result that outgrows small.
	small [48]byte
	big   []byte
}

// conn is the host-side state for one target.
type conn struct {
	t     HostTransport
	f     HostFacts
	seq   []uint32  // next send sequence per slot
	inUse []*handle // outstanding offload per slot
	next  int       // round-robin slot cursor
	dead  bool      // target failed; reject work until RecoverNode
}

// alive reports whether the target can still make progress, latching the
// first failed probe.
func (c *conn) alive() bool {
	if !c.dead && !c.t.Alive() {
		c.dead = true
	}
	return !c.dead
}

// Host is the initiator-side backend on the Vector Host. All methods must
// run on the simulated process passed to Connect — HAM-Offload's host
// runtime is single-threaded, like the C++ original's communication layer.
type Host struct {
	core.HostOnly // no reverse offloading in either protocol

	p       *simtime.Proc
	cfg     HostConfig // options defaulted
	dial    Dial
	conns   []*conn
	polled  resultPoll                 // wait's poll loop; one wait runs at a time
	handles pool.Free[handle, *handle] // one per offload ever in flight at once
	// Span names, built once: the hot path must not concatenate strings.
	spanCall, spanFlagWrite, spanWait, spanPollFault string
}

// Connect dials n targets and returns the backend serving node 0.
func Connect(p *simtime.Proc, cfg HostConfig, n int, dial Dial) (*Host, error) {
	cfg.Options.fill()
	if cfg.TotalNodes == 0 {
		cfg.TotalNodes = n + 1
	}
	h := &Host{
		p: p, cfg: cfg, dial: dial,
		spanCall:      cfg.Name + "-call",
		spanFlagWrite: cfg.Name + "-flag-write",
		spanWait:      cfg.Name + "-wait",
		spanPollFault: cfg.Name + "-poll-fault",
	}
	for i := 0; i < n; i++ {
		c, err := h.connect(i)
		if err != nil {
			return nil, err
		}
		h.conns = append(h.conns, c)
	}
	return h, nil
}

func (h *Host) connect(i int) (*conn, error) {
	t, f, err := h.dial(h.cfg.Options, i, h.cfg.NodeBase+i+1, h.cfg.TotalNodes)
	if err != nil {
		return nil, err
	}
	t.Watch(&h.polled.Watch)
	return &conn{t: t, f: f, seq: make([]uint32, h.cfg.NumBuffers), inUse: make([]*handle, h.cfg.NumBuffers)}, nil
}

// Self implements core.Backend.
func (h *Host) Self() core.NodeID { return 0 }

// NumNodes implements core.Backend.
func (h *Host) NumNodes() int { return len(h.conns) + 1 }

// Descriptor implements core.Backend.
func (h *Host) Descriptor(n core.NodeID) core.NodeDescriptor {
	if n == 0 {
		return core.NodeDescriptor{Name: "vh", Arch: "x86_64", Device: "Intel Xeon Gold 6126 (VH)"}
	}
	c, err := h.conn(n)
	if err != nil {
		return core.NodeDescriptor{Name: "invalid"}
	}
	return core.NodeDescriptor{Name: c.f.Node, Arch: TargetArch, Device: "NEC VE Type 10B"}
}

func (h *Host) conn(target core.NodeID) (*conn, error) {
	i := int(target) - h.cfg.NodeBase - 1
	if i < 0 || i >= len(h.conns) {
		return nil, h.errNoTarget(target)
	}
	return h.conns[i], nil
}

// The failures below end an offload; rendering them is off the hot path.

func (h *Host) errNoTarget(target core.NodeID) error {
	return fmt.Errorf("%s: no target node %d", h.cfg.Name, target)
}

func (h *Host) nodeFailed(target core.NodeID) error {
	return fmt.Errorf("%s: node %d: %w", h.cfg.Name, target, core.ErrNodeFailed)
}

func (h *Host) errTooLong(n int) error {
	return fmt.Errorf("%s: message of %d bytes exceeds buffer size %d", h.cfg.Name, n, h.cfg.BufSize)
}

func (h *Host) errTimeout(hd *handle) error {
	return fmt.Errorf("%s: node %d slot %d: %w", h.cfg.Name, hd.target, hd.slot, core.ErrOffloadTimeout)
}

func (h *Host) errForeignHandle(hh core.Handle) error {
	return fmt.Errorf("%s: foreign or spent handle %T", h.cfg.Name, hh)
}

// stepErr classifies a failed transport step: a crashed VE process marks the
// conn dead and surfaces core.ErrNodeFailed; everything else — notably
// injected transient DMA errors, which core's retry layer may resubmit —
// passes through unchanged.
func (h *Host) stepErr(c *conn, target core.NodeID, err error) error {
	if errors.Is(err, veos.ErrCrashed) {
		c.dead = true
		return h.nodeFailed(target)
	}
	return err
}

// Call implements core.Backend: the message into the next slot's receive
// buffer, then its flag — the host half of Fig. 5 and Fig. 8.
func (h *Host) Call(target core.NodeID, msg []byte) (core.Handle, error) {
	c, err := h.conn(target)
	if err != nil {
		return nil, err
	}
	if !c.alive() {
		return nil, h.nodeFailed(target)
	}
	if len(msg) > h.MaxMessageLen() {
		return nil, h.errTooLong(len(msg))
	}
	callStart := h.cfg.tracer.Now()
	h.p.Charge(c.f.Overhead) // PublishFlag pays it
	slot := c.next
	seq := c.seq[slot]
	mid := h.cfg.mid(slot, seq)
	if h.cfg.tracer != nil {
		// The message's trace IDs wait for the VE under its correlator,
		// taken before the drain below parks; a retried attempt lands in
		// the same slot, under the same correlator, and replaces them.
		tr := h.cfg.tracer.Tracer()
		tr.Swap(int(target), trace.FlowBox(mid), tr.Swap(0, trace.Posted, nil))
	}
	// The host manages the buffers: a slot is free again once the result of
	// its previous use has been consumed.
	if prev := c.inUse[slot]; prev != nil {
		if _, err := h.wait(prev); err != nil {
			return nil, fmt.Errorf("%s: draining slot %d: %w", h.cfg.Name, slot, err)
		}
	}
	if err := c.t.WriteMessage(slot, msg); err != nil {
		return nil, h.stepErr(c, target, err)
	}
	endFlag := h.cfg.tracer.Begin(trace.PhaseFlagWrite, h.spanFlagWrite, mid)
	err = c.t.PublishFlag(slot, slots.Encode(seq, len(msg)))
	endFlag()
	if err != nil {
		return nil, h.stepErr(c, target, err)
	}
	// Commit the slot only now: an attempt aborted mid-sequence never set a
	// flag, so the VE — which serves its receive slots in ring order — still
	// waits for this slot and sequence number. Advancing either cursor
	// earlier would desynchronise the protocol forever; a retried attempt
	// must land in the same slot.
	c.seq[slot]++
	c.next = (c.next + 1) % h.cfg.NumBuffers
	hd := h.handles.Take()
	hd.target, hd.c, hd.slot, hd.seq, hd.resp, hd.done = target, c, slot, seq, nil, false
	c.inUse[slot] = hd
	h.cfg.tracer.Since(trace.PhaseCall, h.spanCall, mid, callStart)
	return hd, nil
}

// release parks a handle whose result the caller now holds. The bytes stay
// where they are until a later Call reuses the handle and its next result
// overwrites them.
func (h *Host) release(hd *handle) {
	hd.c = nil
	h.handles.Put(hd)
}

// OpenHandles returns how many handles Call issued that Wait or Poll has
// not yet handed back: offloads in flight, and any whose owner never asked
// for the result (a timed-out wait, a hedge loser, a node that failed).
func (h *Host) OpenHandles() int { return h.handles.Live() }

// handleOf resolves a handle this Host issued and has not yet released.
func (h *Host) handleOf(hh core.Handle) (*handle, error) {
	hd, ok := hh.(*handle)
	if !ok || hd.c == nil {
		return nil, h.errForeignHandle(hh)
	}
	return hd, nil
}

// pollSlot checks the result flag once and completes the handle when the
// target has published the result.
func (h *Host) pollSlot(hd *handle) (bool, error) {
	c := hd.c
	word, err := c.t.PollResult(hd.slot)
	if err != nil {
		return false, err
	}
	n, ok := slots.Decode(word, hd.seq)
	if !ok {
		return false, nil
	}
	var resp []byte
	if n <= len(hd.small) {
		resp = hd.small[:n]
	} else {
		if n > cap(hd.big) {
			hd.big = make([]byte, n) // pool miss: a recycled handle's result buffer grows to the largest result it carries
		}
		resp = hd.big[:n]
	}
	inline := min(n, h.cfg.ResultInline)
	if err := c.t.ReadResult(hd.slot, resp[:inline], resp[inline:]); err != nil {
		return false, err
	}
	hd.resp = resp
	hd.done = true
	if c.inUse[hd.slot] == hd {
		c.inUse[hd.slot] = nil
	}
	return true, nil
}

// probe is one poll as Wait and Poll see it: absorbed reports a transient
// poll error swallowed on the transport's say-so.
func (h *Host) probe(hd *handle) (done, absorbed bool, err error) {
	done, err = h.pollSlot(hd)
	if err != nil && hd.c.f.AbsorbPollFaults && core.IsTransient(err) {
		h.cfg.tracer.Instant(trace.PhaseFault, h.spanPollFault, h.cfg.mid(hd.slot, hd.seq))
		return false, true, nil
	}
	return done, false, h.stepErr(hd.c, hd.target, err)
}

// resultPoll is wait's loop over a free poll (PollGap > 0), in the form
// simtime.Proc.Poll takes: every PollGap, has anything happened that wait
// must look at — the target gone, the poll failing, the result flag of this
// offload up? wait then looks for itself, in its own order. Every conn's
// transport notifies its Watch (HostTransport.Watch).
type resultPoll struct {
	simtime.Free  // Tick, Missed
	simtime.Watch // a PollGap grid
	hd            *handle
}

// Hit implements simtime.Poller. Unlike conn.alive it latches nothing.
func (q *resultPoll) Hit() bool {
	c := q.hd.c
	if c.dead || !c.t.Alive() {
		return true
	}
	word, err := c.t.PollResult(q.hd.slot)
	if err != nil {
		return true
	}
	_, ok := slots.Decode(word, q.hd.seq)
	return ok
}

func (h *Host) wait(hd *handle) ([]byte, error) {
	h.p.Pay() // a Call draining its slot owes its overhead
	c := hd.c
	defer h.cfg.tracer.Begin(trace.PhaseWait, h.spanWait, h.cfg.mid(hd.slot, hd.seq))()
	var deadline simtime.Time // zero: none
	if d := h.cfg.OffloadTimeout; d > 0 {
		deadline = h.p.Now().Add(d)
	}
	for !hd.done {
		// A dead target may show up only as silence; in-flight futures must
		// fail instead of waiting for a result that will never be pushed.
		if !c.alive() {
			return nil, h.nodeFailed(hd.target)
		}
		// An absorbed glitch cost one poll; the next read retries it for free.
		done, absorbed, err := h.probe(hd)
		if err != nil {
			return nil, err
		}
		if !done && !absorbed && c.f.PollGap > 0 {
			h.polled.hd = hd
			h.polled.Backoff = simtime.Backoff{Base: c.f.PollGap, Max: c.f.PollGap}
			h.p.Poll(&h.polled, &h.polled.Watch, deadline)
		}
		if deadline != 0 && !hd.done && h.p.Now() >= deadline {
			// The slot stays leased to the lost offload — the leak is
			// bounded by NumBuffers, and RecoverNode rebuilds the whole
			// communication area.
			return nil, h.errTimeout(hd)
		}
	}
	h.p.Sleep(c.f.Overhead)
	return hd.resp, nil
}

// Wait implements core.Backend: the result is handed out, the handle
// released.
func (h *Host) Wait(hh core.Handle) ([]byte, error) {
	hd, err := h.handleOf(hh)
	if err != nil {
		return nil, err
	}
	resp, err := h.wait(hd)
	if err != nil {
		return nil, err
	}
	h.release(hd)
	return resp, nil
}

// Poll implements core.Backend: a result is handed out, and its handle
// released, as by Wait.
func (h *Host) Poll(hh core.Handle) ([]byte, bool, error) {
	hd, err := h.handleOf(hh)
	if err != nil {
		return nil, false, err
	}
	if hd.done {
		h.release(hd)
		return hd.resp, true, nil
	}
	c := hd.c
	if !c.alive() {
		return nil, false, h.nodeFailed(hd.target)
	}
	// Charging the gap keeps user-level Test() busy-wait loops advancing
	// simulated time when the poll itself is free.
	if c.f.PollGap > 0 {
		h.p.Sleep(c.f.PollGap)
	}
	done, _, err := h.probe(hd)
	if err != nil || !done {
		return nil, false, err
	}
	h.release(hd)
	return hd.resp, true, nil
}

// bulk resolves the target of a Put or Get.
func (h *Host) bulk(target core.NodeID) (*conn, error) {
	c, err := h.conn(target)
	if err != nil {
		return nil, err
	}
	if c.dead {
		return nil, h.nodeFailed(target)
	}
	return c, nil
}

// Put implements core.Backend.
func (h *Host) Put(target core.NodeID, data []byte, dstAddr uint64) error {
	c, err := h.bulk(target)
	if err != nil {
		return err
	}
	return h.stepErr(c, target, c.t.Put(data, dstAddr))
}

// Get implements core.Backend.
func (h *Host) Get(target core.NodeID, srcAddr uint64, dst []byte) error {
	c, err := h.bulk(target)
	if err != nil {
		return err
	}
	return h.stepErr(c, target, c.t.Get(srcAddr, dst))
}

// Memory implements core.Backend.
func (h *Host) Memory() core.LocalMemory { return h.cfg.memory }

// Clock implements core.Backend: the host process's simulated clock, kernel
// work charged by the host roofline model.
func (h *Host) Clock() core.Clock { return vecore.HostClock{Proc: h.p} }

// MaxMessageLen implements core.Backend: a wire message must fit one
// message buffer and its length must be publishable in a slot flag word.
func (h *Host) MaxMessageLen() int { return min(h.cfg.BufSize, slots.MaxLen) }

// RecoverNode implements core.Backend: it abandons the failed target —
// reaping the dead VE process and its communication area — and dials it
// afresh. Outstanding handles stay pinned to the dead conn and keep failing
// with core.ErrNodeFailed; new offloads use the replacement.
func (h *Host) RecoverNode(n core.NodeID) error {
	c, err := h.conn(n)
	if err != nil {
		return err
	}
	c.dead = true
	c.t.Abandon()
	i := int(n) - h.cfg.NodeBase - 1
	nc, err := h.connect(i)
	if err != nil {
		return err
	}
	h.conns[i] = nc
	return nil
}

// Close implements core.Backend.
func (h *Host) Close() error {
	var firstErr error
	for _, c := range h.conns {
		if err := c.t.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

var _ core.Backend = (*Host)(nil)
