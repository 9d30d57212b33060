package core

import "hamoffload/internal/trace"

// Continuous telemetry (see internal/trace): with a tracer attached the
// runtime records per-node time series (in-flight offloads, batch queue
// depth, retries, bytes moved), feeds issue-to-settle latencies to the SLO
// tracker, and — when causal flows are armed — gives every offload a
// deterministic 64-bit trace ID linking its issue, flush, retry, execute and
// settle events into one causal record. The IDs never enter the wire: each
// post hands its message's IDs (one, or a batch frame's in entry order) to
// the shared tracer, the transport carries them beside the message, and
// the target's Dispatch takes them back.

// noteSent counts wire bytes shipped to node (every post attempt, including
// retransmissions — the bytes move each time) and hands the message's trace
// IDs to the transport's Call.
func (rt *Runtime) noteSent(node NodeID, n int, fids []uint64) {
	if rt.tr == nil {
		return
	}
	tr := rt.tr.Tracer()
	tr.Add(int(node), trace.SeriesBytes, rt.clock.Now(), int64(n))
	tr.Swap(int(rt.ThisNode()), trace.Posted, fids)
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
