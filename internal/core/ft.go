package core

import (
	"errors"
	"fmt"

	"hamoffload/internal/faults"
	"hamoffload/internal/simtime"
	"hamoffload/internal/trace"
)

// FaultTolerance configures the runtime's retry policy for transient
// offload failures (injected DMA errors, corrupt payloads, dropped
// frames). The zero value disables fault tolerance — no envelope bytes on
// the wire, no retries — which keeps un-faulted traffic bit-identical to
// the plain protocol.
//
// With MaxRetries > 0 every offload request is framed in a checksummed,
// sequence-numbered envelope (see envelope.go) and transient failures are
// retried up to MaxRetries times with bounded exponential backoff on the
// node's clock (wall-clock nodes retry immediately): attempt k sleeps
// BackoffBase<<(k-1), capped at BackoffMax. The target's dedup window
// preserves at-most-once handler execution across retransmissions.
type FaultTolerance struct {
	MaxRetries  int
	BackoffBase simtime.Duration
	BackoffMax  simtime.Duration
	// Seed keys the splitmix64 stream (faults.Mix — the chaos plan's stream,
	// never a fresh randomness source) that jitters each backoff by up to
	// half its nominal length, decorrelating retry storms across initiators.
	// 0 disables jitter: backoffs are exactly the exponential schedule,
	// bit-identical to the un-seeded runtime.
	Seed uint64
}

func (ft FaultTolerance) enabled() bool { return ft.MaxRetries > 0 }

// SetFaultTolerance installs the retry policy on the initiating runtime.
// Call it before issuing offloads.
func (rt *Runtime) SetFaultTolerance(ft FaultTolerance) { rt.ft = ft }

// FaultTolerancePolicy returns the installed retry policy.
func (rt *Runtime) FaultTolerancePolicy() FaultTolerance { return rt.ft }

// Retries returns how many transient-failure retries this runtime has
// performed.
func (rt *Runtime) Retries() int64 { return rt.retries }

// RecoverNode asks the backend to re-establish a failed node, the
// machine-level recovery hook: after it succeeds, new offloads to the node
// are accepted again. Futures that failed with ErrNodeFailed stay failed. A
// backend that cannot recover the node fails with ErrUnsupported.
func (rt *Runtime) RecoverNode(n NodeID) error { return rt.backend.RecoverNode(n) }

// pending is the retransmission state of one fault-tolerant offload: the
// sealed wire message and where it goes, so a transient failure can be
// re-posted verbatim (same sequence number — the target dedups).
type pending struct {
	node    NodeID
	msg     []byte
	seq     uint64
	attempt int
	fid     uint64       // causal trace ID riding on msg, 0 without armed flows
	sentAt  simtime.Time // issue time on the simulated clock; hedge delays measure from here
	pinned  bool         // node-addressed runtime control message (msgType.pinned): never hedge
}

// seal wraps an encoded request for fault-tolerant transmission, when the
// policy is on. A nil pending means FT is off and msg travels bare.
func (rt *Runtime) seal(node NodeID, msg []byte) ([]byte, *pending) {
	if !rt.ft.enabled() {
		return msg, nil
	}
	rt.seq++
	pd := &pending{node: node, seq: rt.seq, sentAt: rt.clock.Now()}
	pd.msg = sealMessage(envRequest, pd.seq, msg)
	return pd.msg, pd
}

// canRetry decides whether pd may be retransmitted for err: the failure
// must be transient, attempts must remain, and — last, because it spends a
// token — the target's retry budget must allow more traffic.
func (rt *Runtime) canRetry(pd *pending, err error) bool {
	return pd != nil && IsTransient(err) && pd.attempt < rt.ft.MaxRetries &&
		rt.spendToken(pd.node)
}

// noteTimeout counts a timed-out offload on its way to the caller.
func (rt *Runtime) noteTimeout(err error) {
	if errors.Is(err, ErrOffloadTimeout) {
		rt.tr.Instant(trace.PhaseTimeout, "offload timeout", rt.offloads)
		rt.tr.Count("offload.timeouts", 1)
	}
}

// resubmit backs off and re-posts pd, consuming one retry. It keeps
// consuming budget while the re-post itself fails transiently. Only faulted
// offloads come through here, so its label formatting is off the hot path.
func (rt *Runtime) resubmit(pd *pending) (Handle, error) {
	for {
		pd.attempt++
		rt.retries++
		if rt.tr != nil {
			rt.tr.Instant(trace.PhaseRetry, fmt.Sprintf("retry %d seq %d", pd.attempt, pd.seq), rt.offloads)
		}
		rt.tr.Count("offload.retries", 1)
		if tr := rt.tr.Tracer(); tr != nil {
			now := rt.clock.Now()
			tr.Add(int(pd.node), trace.SeriesRetries, now, 1)
			// For a retried batch frame pd.fid is the first entry's ID; the
			// whole frame retransmits as a unit, so one event stands in.
			tr.Event(pd.fid, now, int(rt.ThisNode()), trace.FlowRetry,
				fmt.Sprintf("attempt %d", pd.attempt))
		}
		d := rt.ft.BackoffBase
		if d > 0 {
			for i := 1; i < pd.attempt; i++ {
				d *= 2
				if rt.ft.BackoffMax > 0 && d >= rt.ft.BackoffMax {
					d = rt.ft.BackoffMax
					break
				}
			}
			if rt.ft.Seed != 0 {
				d += simtime.Duration(faults.Mix(rt.ft.Seed, pd.seq, uint64(pd.attempt)) % uint64(d/2+1))
			}
			rt.clock.Sleep(d)
		}
		rt.noteSent(pd.node, len(pd.msg))
		h, err := rt.backend.Call(pd.node, pd.msg)
		if err == nil {
			return h, nil
		}
		if !rt.canRetry(pd, err) {
			rt.noteTimeout(err)
			return nil, err
		}
	}
}

// openResponse validates and unwraps a response under pd's policy. With FT
// off it is the identity. Any framing violation — missing envelope, bad
// checksum, foreign sequence number, or a target-issued NACK — classifies
// as ErrPayloadCorrupt, i.e. transient.
func (rt *Runtime) openResponse(pd *pending, resp []byte) ([]byte, error) {
	if pd == nil {
		return resp, nil
	}
	kind, seq, payload, enveloped, err := openMessage(resp)
	if err != nil {
		return nil, err
	}
	if !enveloped || kind != envResponse || seq != pd.seq {
		return nil, errBadEnvelope(enveloped, kind, seq, pd.seq)
	}
	return payload, nil
}

// errBadEnvelope names what was wrong with a response that did not carry the
// envelope its request went out in.
func errBadEnvelope(enveloped bool, kind uint8, seq, want uint64) error {
	switch {
	case !enveloped:
		return fmt.Errorf("%w: response not enveloped", ErrPayloadCorrupt)
	case kind == envNack:
		return fmt.Errorf("%w: target rejected request checksum (seq %d)", ErrPayloadCorrupt, seq)
	}
	return fmt.Errorf("%w: response envelope kind %d seq %d (want seq %d)", ErrPayloadCorrupt, kind, seq, want)
}
