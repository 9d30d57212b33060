package core

import (
	"encoding/binary"

	"hamoffload/internal/trace"
)

// Continuous telemetry (see internal/trace): with a tracer attached the
// runtime records per-node time series (in-flight offloads, batch queue
// depth, retries, bytes moved), feeds issue-to-settle latencies to the SLO
// tracker, and — when causal flows are armed — carries a deterministic
// 64-bit trace ID on every wire message so the initiator's issue/flush/retry
// events and the target's execute event link into one causal record.
//
// The trace ID travels in its own frame around whatever the message already
// is (FT envelope or bare HAM message; inside a batch, each entry is framed
// individually):
//
//	[u32 magic][u64 trace id]  then the inner message
//
// Like the FT envelope and the batch frame, detection relies on the magic
// being far above any plain HAM handler key. The frame is only ever added
// when trace.Config.Flows is armed, because 12 extra bytes per message are
// a (deterministic) change to simulated transfer timing; with flows off or
// no tracer attached, wire bytes are bit-identical to the un-instrumented
// runtime.

const (
	flowMagic  uint32 = 0xF10DC0DE
	flowHeader        = 4 + 8 // magic + trace id
)

// sealFlow frames inner with its offload's trace ID. Only armed causal
// flows reach it (flowSeal passes bare wire through when no flow is open),
// and armed flows opt in to the instrumentation cost.
func sealFlow(id uint64, inner []byte) []byte {
	out := make([]byte, flowHeader+len(inner))
	binary.LittleEndian.PutUint32(out[0:4], flowMagic)
	binary.LittleEndian.PutUint64(out[4:12], id)
	copy(out[flowHeader:], inner)
	return out
}

// openFlow undoes sealFlow; ok is false when msg carries no flow frame.
func openFlow(msg []byte) (id uint64, inner []byte, ok bool) {
	if len(msg) < flowHeader || binary.LittleEndian.Uint32(msg[0:4]) != flowMagic {
		return 0, nil, false
	}
	return binary.LittleEndian.Uint64(msg[4:12]), msg[flowHeader:], true
}

// flowSeal wraps one sealed wire message with the current offload's trace
// ID, consuming it. With flows off (or no offload span open) the wire
// passes through untouched. A non-nil pending is rebound to the wrapped
// bytes so retransmissions carry the same trace ID.
func (rt *Runtime) flowSeal(wire []byte, pd *pending) ([]byte, uint64) {
	fid := rt.curFlow
	rt.curFlow = 0
	if fid == 0 {
		return wire, 0
	}
	wrapped := sealFlow(fid, wire)
	if pd != nil {
		pd.msg = wrapped
		pd.fid = fid
	}
	return wrapped, fid
}

// noteSent counts wire bytes shipped to node (every post attempt, including
// retransmissions — the bytes move each time).
func (rt *Runtime) noteSent(node NodeID, n int) {
	if rt.tr == nil {
		return
	}
	rt.tr.Tracer().Add(int(node), trace.SeriesBytes, rt.clock.Now(), int64(n))
}

// noteExecute records the target-side causal event for a flow-framed
// message, named after the inner HAM message when it can be resolved.
func (rt *Runtime) noteExecute(fid uint64, inner []byte) {
	if rt.tr == nil {
		return
	}
	name := ""
	if _, _, payload, enveloped, err := openMessage(inner); enveloped && err == nil {
		name = rt.bin.MessageName(payload)
	} else {
		name = rt.bin.MessageName(inner)
	}
	rt.tr.Tracer().Event(fid, rt.clock.Now(), int(rt.ThisNode()), trace.FlowExecute, name)
}

// NotePlacement records a scheduler placement decision on the most recently
// issued offload's causal record: policy is the deciding policy's name, node
// the chosen target. The cluster scheduler calls it right after handing the
// offload to the runtime. A no-op without armed flows.
func (rt *Runtime) NotePlacement(policy string, node NodeID) {
	if rt.lastFlow == 0 {
		return
	}
	rt.tr.Tracer().Event(rt.lastFlow, rt.clock.Now(), int(node), trace.FlowPlace, policy)
}
