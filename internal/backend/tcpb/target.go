package tcpb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"hamoffload/internal/core"
	"hamoffload/internal/mem"
	"hamoffload/internal/trace"
)

// Target is the serving side of the TCP backend: it accepts one host
// connection and processes frames until terminated.
type Target struct {
	core.TargetOnly

	ln    net.Listener
	self  core.NodeID
	total int
	heap  *core.Heap
	nt    *trace.NodeTracer

	mu   sync.Mutex
	conn net.Conn
}

// SetTracer attaches a wall-clock trace handle for the target's serve loop.
// Call it before Serve.
func (t *Target) SetTracer(tr *trace.Tracer, clock trace.Clock) {
	t.nt = tr.Node(int(t.self), "tcpb", clock)
}

// Listen starts a target on addr (e.g. "127.0.0.1:0"). self is this node's
// rank (usually 1), total the application's node count; heapBytes sizes the
// node's memory.
func Listen(addr string, self, total int, heapBytes int64) (*Target, error) {
	if self <= 0 || self >= total {
		return nil, fmt.Errorf("tcpb: target rank %d must be in 1..%d", self, total-1)
	}
	heap, err := core.NewHeap(fmt.Sprintf("tcpb-node%d", self), heapBytes)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Target{ln: ln, self: core.NodeID(self), total: total, heap: heap}, nil
}

// Addr returns the listening address, for handing to Dial.
func (t *Target) Addr() string { return t.ln.Addr().String() }

// Self implements core.Backend.
func (t *Target) Self() core.NodeID { return t.self }

// NumNodes implements core.Backend.
func (t *Target) NumNodes() int { return t.total }

// Descriptor implements core.Backend.
func (t *Target) Descriptor(n core.NodeID) core.NodeDescriptor {
	if n == t.self {
		return core.NodeDescriptor{
			Name: fmt.Sprintf("tcp%d", t.self), Arch: "tcp-target", Device: t.Addr(),
		}
	}
	if n == 0 {
		return core.NodeDescriptor{Name: "host", Arch: "tcp-host", Device: "initiator"}
	}
	return core.NodeDescriptor{Name: fmt.Sprintf("node%d", n)}
}

// Serve implements core.Backend: accept the host connection and process
// frames until a terminate message has been dispatched.
func (t *Target) Serve(s core.Server) error {
	conn, err := t.ln.Accept()
	if err != nil {
		return err
	}
	t.mu.Lock()
	t.conn = conn
	t.mu.Unlock()
	defer func() {
		_ = conn.Close()
		_ = t.ln.Close()
	}()
	for !s.Done() {
		pollStart := t.nt.Now()
		typ, id, addr, payload, err := readFrame(conn)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return fmt.Errorf("tcpb: host disconnected before terminate")
			}
			return err
		}
		switch typ {
		case frameCall:
			t.nt.Since(trace.PhasePoll, "tcpb-recv", int64(id), pollStart)
			resp := s.Dispatch(payload)
			endResult := t.nt.Begin(trace.PhaseResult, "tcpb-result", int64(id))
			err := writeFrame(conn, frameResp, id, 0, resp)
			endResult()
			if err != nil {
				return err
			}
		case framePut:
			if err := t.heap.WriteAt(payload, mem.Addr(addr)); err != nil {
				if werr := writeFrame(conn, frameError, id, 0, []byte(err.Error())); werr != nil {
					return werr
				}
				continue
			}
			if err := writeFrame(conn, frameAck, id, 0, nil); err != nil {
				return err
			}
		case frameGet:
			if len(payload) != 4 {
				return fmt.Errorf("tcpb: malformed get frame")
			}
			n := binary.LittleEndian.Uint32(payload)
			buf := make([]byte, n)
			if err := t.heap.ReadAt(buf, mem.Addr(addr)); err != nil {
				if werr := writeFrame(conn, frameError, id, 0, []byte(err.Error())); werr != nil {
					return werr
				}
				continue
			}
			if err := writeFrame(conn, frameData, id, 0, buf); err != nil {
				return err
			}
		default:
			return fmt.Errorf("tcpb: unexpected frame type %d from host", typ)
		}
	}
	return nil
}

// Memory implements core.Backend.
func (t *Target) Memory() core.LocalMemory { return t.heap }

// Clock implements core.Backend: this node runs in real time.
func (t *Target) Clock() core.Clock { return core.WallClock }

// Close implements core.Backend.
func (t *Target) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.conn != nil {
		_ = t.conn.Close()
	}
	return t.ln.Close()
}

var _ core.Backend = (*Target)(nil)
