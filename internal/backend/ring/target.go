package ring

import (
	"fmt"

	"hamoffload/internal/backend/slots"
	"hamoffload/internal/core"
	"hamoffload/internal/ham"
	"hamoffload/internal/simtime"
	"hamoffload/internal/trace"
	"hamoffload/internal/veos"
)

// TargetTransport moves the bytes of the ring's target side. As on the host,
// the protocol orders the writes: the result payload is pushed before its
// flag is published.
type TargetTransport interface {
	// LoadFlag reads the slot's receive flag word once, as the protocol
	// loads it: taking its time, passing its fault sites, recording its
	// span. Serve issues it on the ticks of its idle poll that QuietFlag
	// does not leave to the parked poll.
	LoadFlag(slot int) (uint64, error)
	// QuietFlag reports whether LoadFlag(slot), issued at at, would only
	// take cost (a slow-down window's included) and read the flag word at
	// its end: no span records it, no fault rule fails it or delays it by a
	// draw of its own. Serve's poll then parks (flagPoll) — PeekFlag at a
	// load's end, CountFlags for the loads it passed over. A pure read, its
	// answer holds for later loads until the watch is notified or lapse
	// comes. cost is zero for a flag in local memory, always quiet.
	QuietFlag(slot int, at simtime.Time) (cost simtime.Duration, quiet bool, lapse simtime.Lapse)
	// PeekFlag is a quiet LoadFlag's read alone: the slot's flag word,
	// taking no time and changing nothing.
	PeekFlag(slot int) (uint64, error)
	// CountFlags accounts for n quiet LoadFlags issued at at that a parked
	// poll passed over, as LoadFlag accounts for its own (dma.Instr.Loads).
	CountFlags(n int64, at simtime.Time)
	// WatchFlags makes the store that lands any receive flag word notify w.
	WatchFlags(w *simtime.Watch)
	// Fetch brings the slot's n-byte message to the VE, charging the
	// transfer and the fixed VE-side framework overhead (HAMVEOverhead),
	// owed: the VE owns the slot until its result flag (simtime.Proc.Charge).
	// The message is returned where it landed, a view of the transport's
	// memory (mem.Memory.View) — dmab's staging buffer, veob's receive
	// buffer — borrowed until the slot's result is pushed.
	//
	//ham:borrowed return
	Fetch(slot, n int) ([]byte, error)
	// PushResult places a result in the slot's send buffers: inline next to
	// the flag, the rest in the overflow buffer, its cost owed like Fetch's.
	//
	//ham:borrowed inline overflow
	PushResult(slot int, inline, overflow []byte) error
	// PublishResultFlag pays the VE's debt and makes the result visible.
	PublishResultFlag(slot int, word uint64) error
}

// TargetConfig is what a transport's init kernel hands to Register.
type TargetConfig struct {
	Name        string // protocol name, as in HostConfig
	Options            // the ring shape: the first three fields
	Self, Nodes int
	Transport   TargetTransport
	// IdlePollCost is what one missed poll adds to the idle-time account on
	// top of the poll gap (simtime.Backoff.PollCost), and so when the idle
	// back-off starts: the nominal LHM word load of the DMA protocol,
	// nothing for a local-memory flag. It shapes the schedule only; what a
	// poll takes is QuietFlag's cost.
	IdlePollCost simtime.Duration
}

// Target is the VE-side backend: it serves its receive slots in ring order,
// executes each message through HAM and publishes the result in the paired
// send slot.
type Target struct {
	TargetConfig
	core.TargetOnly // both protocols are host-initiated only

	p     *simtime.Proc
	poll  simtime.Duration // gap between receive-flag polls (HAMVEPollInterval)
	idle  flagPoll         // Serve's idle poll loop: its back-off, and where it parks
	alive func() bool      // false once the VE process has crashed
	nt    *trace.NodeTracer
	desc  core.NodeDescriptor
	heap  core.LocalMemory
	cpu   core.Clock // the kernel context ham_main runs on
	seq   []uint32   // next receive sequence per slot
	// Span names, built once: the serve loop must not concatenate strings.
	spanPollFault, spanPollHit, spanFetch, spanFetchFault, spanResult, spanRespondRetry string
}

// idleBackoffAfter and idleBackoffMax shape the poll gap of a quiet VE: so it
// does not flood the event queue the gap backs off exponentially, up to 512
// poll intervals — but only after a sustained idle period, so back-to-back
// offloads always see the base interval.
const (
	idleBackoffAfter = 500 * simtime.Microsecond
	idleBackoffMax   = 512
)

func newTarget(cfg TargetConfig, p *simtime.Proc, poll simtime.Duration, alive func() bool) *Target {
	t := &Target{
		TargetConfig: cfg, p: p, poll: poll, alive: alive,
		seq:              make([]uint32, cfg.NumBuffers),
		spanPollFault:    cfg.Name + "-poll-fault",
		spanPollHit:      cfg.Name + "-poll-hit",
		spanFetch:        cfg.Name + "-fetch",
		spanFetchFault:   cfg.Name + "-fetch-fault",
		spanResult:       cfg.Name + "-result",
		spanRespondRetry: cfg.Name + "-respond-retry",
	}
	t.idle = flagPoll{t: t, Watch: simtime.Watch{Backoff: simtime.Backoff{
		Base: poll, After: idleBackoffAfter, Max: poll * idleBackoffMax, PollCost: cfg.IdlePollCost,
	}}}
	if cfg.Transport != nil {
		cfg.Transport.WatchFlags(&t.idle.Watch)
	}
	return t
}

// flagPoll is Serve's idle loop in the form simtime.Proc.Poll takes: every
// back-off gap, does Serve have to look for itself — the server done, the VE
// process gone, a flag load that is not quiet — and if not, has the load
// found the next message's flag up, or failed? The receive flag stores and
// the card's crash notify its Watch.
type flagPoll struct {
	simtime.Watch // the gap schedule, and where Serve parks
	t             *Target
	s             core.Server
	slot          int
	at            simtime.Time // the tick Tick last answered for: the window of the loads counted
	// What the last Hit read: the word Serve goes on with after a hit.
	word uint64
	err  error
}

// Tick implements simtime.Poller: the loads QuietFlag calls quiet are the
// parked poll's, up to the one a fault rule fails, which Serve issues.
func (q *flagPoll) Tick(at simtime.Time) (simtime.Duration, bool, simtime.Lapse) {
	t := q.t
	if q.s.Done() || !t.alive() {
		return 0, true, simtime.Lapse{}
	}
	q.at = at
	cost, quiet, lapse := t.Transport.QuietFlag(q.slot, at)
	return cost, !quiet, lapse
}

// Hit implements simtime.Poller.
func (q *flagPoll) Hit() bool {
	q.word, q.err = q.t.Transport.PeekFlag(q.slot)
	if q.err != nil {
		return true
	}
	_, ok := slots.Decode(q.word, q.t.seq[q.slot])
	return ok
}

// Missed implements simtime.Poller: n quiet loads missed.
func (q *flagPoll) Missed(n int64) { q.t.Transport.CountFlags(n, q.at) }

// Self implements core.Backend.
func (t *Target) Self() core.NodeID { return core.NodeID(t.TargetConfig.Self) }

// NumNodes implements core.Backend.
func (t *Target) NumNodes() int { return t.Nodes }

// Descriptor implements core.Backend.
func (t *Target) Descriptor(n core.NodeID) core.NodeDescriptor {
	if n == t.Self() {
		return t.desc
	}
	if n == 0 {
		return core.NodeDescriptor{Name: "vh", Arch: "x86_64", Device: "Vector Host"}
	}
	return core.NodeDescriptor{Name: fmt.Sprintf("node%d", n)}
}

// respondRetries bounds the transient-error retry window of one result push.
const respondRetries = 64

// Serve implements core.Backend: the message-processing loop of §III-D and
// of Fig. 8's VE side. The runtime polls the next receive slot's flag; when
// the host has published a message it is fetched, executed through HAM, and
// the result message is published in the paired send slot.
func (t *Target) Serve(s core.Server) error {
	seq := t.seq
	next := 0

	idle := &t.idle
	idle.Reset()
	idle.s = s

	for !s.Done() {
		if !t.alive() {
			// The VE process died under us (injected crash): stop serving
			// instead of spinning on a dead machine.
			return t.errAborted()
		}
		idle.slot = next
		hit := t.p.Poll(idle, &idle.Watch, 0)
		// A traced load is never quiet, so the poll a span covers starts
		// now: it is free, or Serve issues it.
		pollStart := t.nt.Now()
		word, err := idle.word, idle.err
		if hit {
			// The flag was up, or its read failed, at the end of a quiet
			// load (or of a free one).
			t.Transport.CountFlags(1, idle.at)
		} else if s.Done() || !t.alive() {
			continue
		} else {
			// A load that is not quiet: Serve issues it.
			word, err = t.Transport.LoadFlag(next)
		}
		if err != nil {
			if core.IsTransient(err) {
				// An injected glitch on the flag load reads as a miss: back
				// off one poll interval and retry the load.
				t.nt.Instant(trace.PhaseFault, t.spanPollFault, int64(next))
				t.p.Sleep(idle.Current())
				continue
			}
			return err
		}
		n, ok := slots.Decode(word, seq[next])
		if !ok {
			t.p.Sleep(idle.Gap())
			continue
		}
		idle.Reset()
		mid := t.mid(next, seq[next])
		t.nt.Since(trace.PhasePoll, t.spanPollHit, mid, pollStart)

		if n > t.BufSize {
			// The host refuses to send what no buffer holds (Host.Call), so
			// this flag word was not written by the protocol.
			return t.errTooLong(next, n)
		}
		// The fetch span also covers the fixed VE-side framework overhead
		// (key translation, functor decode — HAMVEOverhead). Dispatch only
		// borrows the message for the call (core.Server), and the slot stays
		// the VE's until its result is out.
		endFetch := t.nt.Begin(trace.PhaseFetch, t.spanFetch, mid)
		msg, err := t.Transport.Fetch(next, n)
		endFetch()
		if err != nil {
			if core.IsTransient(err) {
				// The flag is still set and the slot sequence untouched: the
				// next iteration re-polls the same slot and refetches, so a
				// transient transfer error delays the message, not drops it.
				t.nt.Instant(trace.PhaseFault, t.spanFetchFault, mid)
				t.p.Sleep(t.poll)
				continue
			}
			return err
		}

		// What serving the message costs is owed until its result flag.
		resp := s.Dispatch(msg)
		endResult := t.nt.Begin(trace.PhaseResult, t.spanResult, mid)
		err = t.respond(next, seq[next], resp)
		// The handler already ran exactly once; only the result push is
		// retried, within a bounded window, so a transient burst cannot
		// wedge the serve loop forever.
		for tries := 0; err != nil && core.IsTransient(err) && tries < respondRetries; tries++ {
			t.nt.Instant(trace.PhaseRetry, t.spanRespondRetry, mid)
			t.p.Sleep(t.poll)
			err = t.respond(next, seq[next], resp)
		}
		endResult()
		if err != nil {
			return err
		}
		// Commit only after the result flag is out, mirroring the host.
		seq[next]++
		next = (next + 1) % t.NumBuffers
	}
	return nil
}

// respond publishes the result in the send slot paired with the receive
// slot: payload first, flag last. A result no send buffer can hold becomes a
// ham failure response, so the offload fails without corrupting the channel.
func (t *Target) respond(slot int, seq uint32, resp []byte) error {
	if len(resp) > t.ResultInline+t.BufSize {
		resp = t.resultTooLong(len(resp))
	}
	inline := min(len(resp), t.ResultInline)
	if err := t.Transport.PushResult(slot, resp[:inline], resp[inline:]); err != nil {
		return err
	}
	return t.Transport.PublishResultFlag(slot, slots.Encode(seq, len(resp)))
}

// The serve loop's failures, rendered off the hot path.

func (t *Target) errAborted() error {
	return fmt.Errorf("%s: serve aborted: %w", t.Name, veos.ErrCrashed)
}

func (t *Target) errTooLong(slot, n int) error {
	return fmt.Errorf("%s: slot %d announces a message of %d bytes, buffer size is %d", t.Name, slot, n, t.BufSize)
}

func (t *Target) resultTooLong(n int) []byte {
	return ham.EncodeFailure(fmt.Sprintf("%s: result of %d bytes exceeds the send buffer", t.Name, n))
}

// Memory implements core.Backend.
func (t *Target) Memory() core.LocalMemory { return t.heap }

// Clock implements core.Backend: the kernel context ham_main runs on, which
// charges kernel work to the VE's cores.
func (t *Target) Clock() core.Clock { return t.cpu }

// Close implements core.Backend.
func (t *Target) Close() error { return nil }

var _ core.Backend = (*Target)(nil)
