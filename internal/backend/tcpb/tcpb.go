// Package tcpb is the portable TCP/IP communication backend of HAM-Offload
// (Fig. 1). It trades performance for interoperability, exactly as the paper
// describes (§I-A): it runs over real sockets between OS processes (or
// goroutines), enabling offloading between hosts where neither MPI nor a
// PCIe-attached accelerator is available — including the paper's
// x86-to-anything scenario. On the SX-Aurora itself it is not usable because
// the VE runs no network stack, which is why the two dedicated protocols
// exist.
package tcpb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"hamoffload/internal/core"
	"hamoffload/internal/faults"
	"hamoffload/internal/trace"
)

// Frame types of the wire protocol.
const (
	frameCall  = 1 // host → target: active message; expects frameResp
	frameResp  = 2 // target → host: response payload
	framePut   = 3 // host → target: addr + data; expects frameAck
	frameGet   = 4 // host → target: addr + length; expects frameData
	frameAck   = 5
	frameData  = 6
	frameError = 7 // target → host: failed put/get
)

// frame header: type u8, id u64, addr u64, length u32 (of payload).
const headerSize = 1 + 8 + 8 + 4

func writeFrame(w io.Writer, typ byte, id, addr uint64, payload []byte) error {
	var hdr [headerSize]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint64(hdr[1:], id)
	binary.LittleEndian.PutUint64(hdr[9:], addr)
	binary.LittleEndian.PutUint32(hdr[17:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

func readFrame(r io.Reader) (typ byte, id, addr uint64, payload []byte, err error) {
	var hdr [headerSize]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, 0, nil, err
	}
	typ = hdr[0]
	id = binary.LittleEndian.Uint64(hdr[1:])
	addr = binary.LittleEndian.Uint64(hdr[9:])
	n := binary.LittleEndian.Uint32(hdr[17:])
	payload = make([]byte, n)
	if _, err = io.ReadFull(r, payload); err != nil {
		return 0, 0, 0, nil, err
	}
	return typ, id, addr, payload, nil
}

// Host is the initiator side: one TCP connection per target node.
type Host struct {
	core.HostOnly

	conns []*hostConn
	descs []core.NodeDescriptor
	heap  *core.Heap
	nt    *trace.NodeTracer
	inj   *faults.Injector
}

// SetFaultInjector arms connection-level fault injection (faults.SiteConn
// send errors and faults.ConnReset schedules). This backend runs on the wall
// clock, so only rate- and op-scheduled rules apply; time-window rules never
// fire (the injector is consulted at simulated time zero).
func (h *Host) SetFaultInjector(inj *faults.Injector) { h.inj = inj }

// SetTracer attaches a wall-clock trace handle for the host's protocol
// spans (frame ids are the message correlators).
func (h *Host) SetTracer(tr *trace.Tracer, clock trace.Clock) {
	h.nt = tr.Node(0, "tcpb", clock)
}

type hostConn struct {
	c      net.Conn
	mu     sync.Mutex // serialises writes
	nextID uint64

	pendMu  sync.Mutex
	pending map[uint64]chan result
	readErr error
}

type result struct {
	typ     byte
	payload []byte
}

// handle is one in-flight round trip; it keeps the conn so a waiter can
// surface the reader loop's underlying error instead of a generic message.
type handle struct {
	hc *hostConn
	ch chan result
	id uint64
}

// errShutdown marks the clean-EOF case: the target closed its side after the
// terminate exchange with nothing outstanding — a graceful shutdown, not a
// node failure.
var errShutdown = errors.New("tcpb: connection shut down")

// renderDead renders a connection's terminal read error for a waiter or
// sender: a broken connection carries the underlying error wrapped in
// core.ErrNodeFailed; a clean shutdown stays a plain closed-connection error.
func renderDead(err error) error {
	switch {
	case err == nil:
		return fmt.Errorf("tcpb: connection closed while waiting")
	case errors.Is(err, errShutdown):
		return errShutdown
	default:
		return fmt.Errorf("tcpb: %w: %v", core.ErrNodeFailed, err)
	}
}

func (hc *hostConn) deadErr() error {
	hc.pendMu.Lock()
	defer hc.pendMu.Unlock()
	return renderDead(hc.readErr)
}

// Dial connects to the listed target addresses; they become nodes 1..n.
// heapBytes sizes the host's own local memory.
func Dial(addrs []string, heapBytes int64) (*Host, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("tcpb: no target addresses")
	}
	heap, err := core.NewHeap("tcpb-host", heapBytes)
	if err != nil {
		return nil, err
	}
	h := &Host{heap: heap}
	h.descs = append(h.descs, core.NodeDescriptor{Name: "host", Arch: "tcp-host", Device: "initiator"})
	for i, addr := range addrs {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			h.closeAll()
			return nil, fmt.Errorf("tcpb: dialing node %d at %s: %w", i+1, addr, err)
		}
		hc := &hostConn{c: c, pending: make(map[uint64]chan result)}
		go hc.readLoop()
		h.conns = append(h.conns, hc)
		h.descs = append(h.descs, core.NodeDescriptor{
			Name: fmt.Sprintf("tcp%d", i+1), Arch: "tcp-target", Device: addr,
		})
	}
	return h, nil
}

func (hc *hostConn) readLoop() {
	for {
		typ, id, _, payload, err := readFrame(hc.c)
		if err != nil {
			hc.pendMu.Lock()
			if errors.Is(err, io.EOF) && len(hc.pending) == 0 {
				// Clean EOF with nothing in flight: the target shut down
				// after the terminate exchange.
				err = errShutdown
			}
			hc.readErr = err
			// Closing the channels releases every pending waiter; each then
			// reads the recorded error through deadErr, so nobody blocks
			// forever on a response that will never arrive.
			for _, ch := range hc.pending {
				close(ch)
			}
			hc.pending = make(map[uint64]chan result)
			hc.pendMu.Unlock()
			return
		}
		hc.pendMu.Lock()
		ch, ok := hc.pending[id]
		if ok {
			delete(hc.pending, id)
		}
		hc.pendMu.Unlock()
		if ok {
			ch <- result{typ: typ, payload: payload}
		}
	}
}

// send writes a frame and registers a response channel for its id.
func (hc *hostConn) send(typ byte, addr uint64, payload []byte) (chan result, uint64, error) {
	hc.mu.Lock()
	defer hc.mu.Unlock()
	hc.pendMu.Lock()
	if err := hc.readErr; err != nil {
		hc.pendMu.Unlock()
		return nil, 0, renderDead(err)
	}
	hc.nextID++
	id := hc.nextID
	ch := make(chan result, 1)
	hc.pending[id] = ch
	hc.pendMu.Unlock()
	if err := writeFrame(hc.c, typ, id, addr, payload); err != nil {
		hc.pendMu.Lock()
		delete(hc.pending, id)
		hc.pendMu.Unlock()
		// A failed write means the transport is broken: the node is
		// unreachable, whatever the reader loop has observed so far.
		return nil, 0, fmt.Errorf("tcpb: %w: %v", core.ErrNodeFailed, err)
	}
	return ch, id, nil
}

func (hc *hostConn) roundTrip(typ byte, addr uint64, payload []byte, wantTyp byte) ([]byte, error) {
	ch, _, err := hc.send(typ, addr, payload)
	if err != nil {
		return nil, err
	}
	res, ok := <-ch
	if !ok {
		return nil, hc.deadErr()
	}
	if res.typ == frameError {
		return nil, fmt.Errorf("tcpb: remote error: %s", res.payload)
	}
	if res.typ != wantTyp {
		return nil, fmt.Errorf("tcpb: unexpected frame type %d (want %d)", res.typ, wantTyp)
	}
	return res.payload, nil
}

// Self implements core.Backend.
func (h *Host) Self() core.NodeID { return 0 }

// NumNodes implements core.Backend.
func (h *Host) NumNodes() int { return len(h.conns) + 1 }

// Descriptor implements core.Backend.
func (h *Host) Descriptor(n core.NodeID) core.NodeDescriptor {
	if int(n) < 0 || int(n) >= len(h.descs) {
		return core.NodeDescriptor{Name: "invalid"}
	}
	return h.descs[n]
}

func (h *Host) conn(target core.NodeID) (*hostConn, error) {
	i := int(target) - 1
	if i < 0 || i >= len(h.conns) {
		return nil, fmt.Errorf("tcpb: no target node %d", target)
	}
	return h.conns[i], nil
}

// Call implements core.Backend.
func (h *Host) Call(target core.NodeID, msg []byte) (core.Handle, error) {
	hc, err := h.conn(target)
	if err != nil {
		return nil, err
	}
	if err := h.injectSend(hc, target); err != nil {
		return nil, err
	}
	callStart := h.nt.Now()
	ch, id, err := hc.send(frameCall, 0, msg)
	if err != nil {
		return nil, err
	}
	h.nt.Since(trace.PhaseCall, "tcpb-call", int64(id), callStart)
	return &handle{hc: hc, ch: ch, id: id}, nil
}

// injectSend consults the fault plan before a send: a SiteConn transfer
// error fails just this attempt (transient, so core's retry layer may
// resubmit), and a scheduled connection reset tears the socket down — the
// reader loop then fails every pending waiter.
func (h *Host) injectSend(hc *hostConn, target core.NodeID) error {
	if h.inj == nil {
		return nil
	}
	if h.inj.ConnReset(int(target)) {
		_ = hc.c.Close()
	}
	if err := h.inj.TransferError(0, faults.SiteConn, int(target)); err != nil {
		return err
	}
	return nil
}

// DropConn forcibly closes the transport to target, simulating a node
// failure: the reader loop fails every pending waiter with
// core.ErrNodeFailed and later offloads are rejected the same way. This
// backend cannot redial, so a dropped node stays dead.
func (h *Host) DropConn(target core.NodeID) error {
	hc, err := h.conn(target)
	if err != nil {
		return err
	}
	return hc.c.Close()
}

// MaxMessageLen implements core.Backend: the frame header carries a
// u32 payload length; 1 GiB keeps well clear of it on every platform.
func (h *Host) MaxMessageLen() int { return 1 << 30 }

// Wait implements core.Backend.
func (h *Host) Wait(hh core.Handle) ([]byte, error) {
	hd, ok := hh.(*handle)
	if !ok {
		return nil, fmt.Errorf("tcpb: foreign handle %T", hh)
	}
	defer h.nt.Begin(trace.PhaseWait, "tcpb-wait", int64(hd.id))()
	res, open := <-hd.ch
	if !open {
		return nil, hd.hc.deadErr()
	}
	return res.payload, nil
}

// Poll implements core.Backend.
func (h *Host) Poll(hh core.Handle) ([]byte, bool, error) {
	hd, ok := hh.(*handle)
	if !ok {
		return nil, false, fmt.Errorf("tcpb: foreign handle %T", hh)
	}
	select {
	case res, open := <-hd.ch:
		if !open {
			return nil, false, hd.hc.deadErr()
		}
		return res.payload, true, nil
	default:
		return nil, false, nil
	}
}

// Put implements core.Backend.
func (h *Host) Put(target core.NodeID, data []byte, dstAddr uint64) error {
	hc, err := h.conn(target)
	if err != nil {
		return err
	}
	_, err = hc.roundTrip(framePut, dstAddr, data, frameAck)
	return err
}

// Get implements core.Backend.
func (h *Host) Get(target core.NodeID, srcAddr uint64, dst []byte) error {
	hc, err := h.conn(target)
	if err != nil {
		return err
	}
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(dst)))
	payload, err := hc.roundTrip(frameGet, srcAddr, lenBuf[:], frameData)
	if err != nil {
		return err
	}
	if len(payload) != len(dst) {
		return fmt.Errorf("tcpb: get returned %d bytes, want %d", len(payload), len(dst))
	}
	copy(dst, payload)
	return nil
}

// Memory implements core.Backend.
func (h *Host) Memory() core.LocalMemory { return h.heap }

// Clock implements core.Backend: this node runs in real time.
func (h *Host) Clock() core.Clock { return core.WallClock }

// RecoverNode implements core.Backend: this backend cannot redial, so a
// dropped node stays dead.
func (h *Host) RecoverNode(n core.NodeID) error {
	return fmt.Errorf("tcpb: recovering node %d: %w", n, core.ErrUnsupported)
}

// Close implements core.Backend.
func (h *Host) Close() error {
	h.closeAll()
	return nil
}

func (h *Host) closeAll() {
	for _, hc := range h.conns {
		_ = hc.c.Close()
	}
}

var _ core.Backend = (*Host)(nil)
