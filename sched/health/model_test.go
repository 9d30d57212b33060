package health_test

import (
	"testing"

	"hamoffload/internal/core"
	"hamoffload/internal/faults"
	"hamoffload/internal/simtime"
	"hamoffload/sched/health"
)

// Model-based property test: drive a Tracker through long random
// Observe/Allows/CommitAdmit schedules on a hand-advanced simulated clock,
// in lockstep with an independent reference state machine written straight
// from the breaker's documented contract. At every step the tracker's
// observable state (StateOf, Allows, EWMA) must match the model, and the
// model asserts the safety properties random walks are best at violating:
//
//   - a breaker never returns to Closed after its strike threshold without
//     an admitted probe succeeding first;
//   - HalfOpen admits exactly one probe — once the slot is taken, Allows
//     stays false until that probe settles;
//   - the latency history resets on the Open -> HalfOpen transition, so
//     pre-ejection EWMA can never condemn a recovered node.
//
// The reference below deliberately re-derives the semantics from the
// package documentation rather than importing the implementation's
// structure, so a refactor that silently changes behaviour trips it.

// refNode mirrors one node's breaker from the documented contract.
type refNode struct {
	ewma    float64
	sampled bool
	failRun int
	slowRun int

	state    health.State
	openedAt simtime.Time
	probing  bool
}

// refAlpha is the documented weight of the newest latency sample.
const refAlpha = 0.25

// refTracker is the reference state machine over all nodes.
type refTracker struct {
	cfg   health.Config
	now   *simtime.Time
	nodes map[core.NodeID]*refNode

	// property bookkeeping
	closedViaProbe bool // last transition to Closed was a successful probe
}

func newRef(cfg health.Config, ids []core.NodeID, now *simtime.Time) *refTracker {
	r := &refTracker{cfg: cfg, now: now, nodes: make(map[core.NodeID]*refNode)}
	for _, id := range ids {
		r.nodes[id] = &refNode{}
	}
	return r
}

func (r *refTracker) bestEWMA(skip *refNode) (float64, bool) {
	best, ok := 0.0, false
	// Map iteration order does not matter: min over a set.
	for _, n := range r.nodes {
		if n == skip || !n.sampled {
			continue
		}
		if !ok || n.ewma < best {
			best, ok = n.ewma, true
		}
	}
	return best, ok
}

func (r *refTracker) observe(t *testing.T, id core.NodeID, lat simtime.Duration, failed bool) {
	n := r.nodes[id]
	if failed {
		n.failRun++
	} else {
		n.failRun = 0
		if !n.sampled {
			n.ewma, n.sampled = float64(lat), true
		} else {
			n.ewma = refAlpha*float64(lat) + (1-refAlpha)*n.ewma
		}
	}
	outlier := false
	if !failed && n.sampled {
		if best, ok := r.bestEWMA(n); ok && n.ewma > r.cfg.OutlierFactor*best {
			outlier = true
		}
	}
	if outlier {
		n.slowRun++
	} else if !failed {
		n.slowRun = 0
	}
	switch n.state {
	case health.Closed:
		if n.failRun >= r.cfg.FailureStrikes || n.slowRun >= r.cfg.OutlierStrikes {
			n.state = health.Open
			n.openedAt = *r.now
			n.probing = false
		}
	case health.HalfOpen:
		if !n.probing {
			return // straggler settlement: must not move the breaker
		}
		n.probing = false
		if failed || outlier {
			n.state = health.Open
			n.openedAt = *r.now
			return
		}
		// PROPERTY: the only path back to Closed from an ejection runs
		// through an admitted probe that succeeded.
		n.state = health.Closed
		n.failRun, n.slowRun, n.probing = 0, 0, false
		r.closedViaProbe = true
	case health.Open:
		// Late settlements never move an open breaker.
	}
}

func (r *refTracker) allows(id core.NodeID) bool {
	n := r.nodes[id]
	switch n.state {
	case health.Closed:
		return true
	case health.Open:
		return r.now.Sub(n.openedAt) >= r.cfg.OpenFor
	default:
		return !n.probing
	}
}

func (r *refTracker) commitAdmit(t *testing.T, id core.NodeID) {
	n := r.nodes[id]
	switch n.state {
	case health.Open:
		if r.now.Sub(n.openedAt) >= r.cfg.OpenFor {
			n.state = health.HalfOpen
			n.probing = true
			// PROPERTY: latency history resets on entry to HalfOpen.
			n.ewma, n.sampled = 0, false
		}
	case health.HalfOpen:
		if n.probing {
			t.Fatal("commitAdmit on a half-open breaker whose probe slot is taken: scheduler admitted a second probe")
		}
		n.probing = true
	}
}

func runModelSchedule(t *testing.T, seed uint64, steps int) (transitions int64, closedViaProbe bool) {
	ids := []core.NodeID{1, 2, 3}
	cfg := health.Config{
		OutlierFactor:  4,
		OutlierStrikes: 4,
		FailureStrikes: 3,
		OpenFor:        50 * simtime.Microsecond,
	}
	var now simtime.Time
	trk := health.New(cfg, ids, func() simtime.Time { return now })
	ref := newRef(cfg, ids, &now)

	check := func(step int) {
		t.Helper()
		for _, id := range ids {
			n := ref.nodes[id]
			if got := trk.StateOf(id); got != n.state {
				t.Fatalf("step %d node %d: state %v, model %v", step, id, got, n.state)
			}
			if got := trk.Allows(id); got != ref.allows(id) {
				t.Fatalf("step %d node %d: Allows %v, model %v", step, id, got, !got)
			}
			ew, ok := trk.EWMA(id)
			if ok != n.sampled {
				t.Fatalf("step %d node %d: EWMA sampled %v, model %v", step, id, ok, n.sampled)
			}
			if ok && ew != simtime.Duration(n.ewma) {
				t.Fatalf("step %d node %d: EWMA %v, model %v", step, id, ew, simtime.Duration(n.ewma))
			}
			if n.state == health.HalfOpen && n.probing && trk.Allows(id) {
				t.Fatalf("step %d node %d: half-open probe slot taken but Allows is true — admits more than one probe", step, id)
			}
		}
	}

	for i := 0; i < steps; i++ {
		r := faults.Mix(seed, uint64(i))
		id := ids[r%uint64(len(ids))]
		switch (r >> 8) % 5 {
		case 0, 1: // settle a fast offload
			ref.observe(t, id, simtime.Duration(5+(r>>16)%10)*simtime.Microsecond, false)
			trk.Observe(id, simtime.Duration(5+(r>>16)%10)*simtime.Microsecond, false)
		case 2: // settle a pathologically slow offload (outlier pressure)
			ref.observe(t, id, simtime.Duration(200+(r>>16)%400)*simtime.Microsecond, false)
			trk.Observe(id, simtime.Duration(200+(r>>16)%400)*simtime.Microsecond, false)
		case 3: // settle a failure
			ref.observe(t, id, 0, true)
			trk.Observe(id, 0, true)
		case 4: // the scheduler path: filter on Allows, then commit
			if trk.Allows(id) != ref.allows(id) {
				t.Fatalf("step %d node %d: Allows diverged before commit", i, id)
			}
			if trk.Allows(id) {
				before := trk.StateOf(id)
				ref.commitAdmit(t, id)
				trk.CommitAdmit(id)
				if before == health.Open && trk.StateOf(id) == health.HalfOpen {
					if _, ok := trk.EWMA(id); ok {
						t.Fatalf("step %d node %d: EWMA survived the open -> half-open transition", i, id)
					}
				}
			}
		}
		if (r>>32)%3 == 0 {
			now = now.Add(simtime.Duration(1+(r>>40)%30) * simtime.Microsecond)
		}
		check(i)
	}

	return trk.Transitions(), ref.closedViaProbe
}

func TestBreakerAgainstModel(t *testing.T) {
	var transitions int64
	probed := 0
	for _, seed := range []uint64{1, 42, 0xC0FFEE, 0xDEADBEEF, 9000} {
		tr, p := runModelSchedule(t, seed, 4000)
		transitions += tr
		if p {
			probed++
		}
	}
	// The schedules must actually reach the interesting states, or the model
	// comparison above degenerates to testing Closed only. Guards re-seeding.
	if transitions == 0 {
		t.Fatal("no breaker ever opened across all seeds: the schedule generator lost its teeth")
	}
	if probed == 0 {
		t.Fatal("no breaker ever re-closed through a probe across all seeds")
	}
}

// TestBreakerModelCoverage pins that the random schedules actually reach
// the interesting states: a breaker opens, admits exactly one probe, and
// re-closes through it. Without this a regression in the generator could
// reduce TestBreakerAgainstModel to testing the Closed state only.
func TestBreakerModelCoverage(t *testing.T) {
	ids := []core.NodeID{1, 2}
	var now simtime.Time
	cfg := health.Config{FailureStrikes: 3, OpenFor: 50 * simtime.Microsecond}
	trk := health.New(cfg, ids, func() simtime.Time { return now })

	for i := 0; i < 3; i++ {
		trk.Observe(1, 0, true)
	}
	if trk.StateOf(1) != health.Open {
		t.Fatalf("state after strikes = %v, want Open", trk.StateOf(1))
	}
	if trk.Allows(1) {
		t.Fatal("open breaker inside cooldown must not admit")
	}
	now = now.Add(50 * simtime.Microsecond)
	if !trk.Allows(1) {
		t.Fatal("open breaker past cooldown must offer a probe")
	}
	trk.CommitAdmit(1)
	if trk.StateOf(1) != health.HalfOpen {
		t.Fatalf("state after probe admit = %v, want HalfOpen", trk.StateOf(1))
	}
	if trk.Allows(1) {
		t.Fatal("half-open breaker with its probe in flight must not admit a second")
	}
	trk.Observe(1, 10*simtime.Microsecond, false)
	if trk.StateOf(1) != health.Closed {
		t.Fatalf("state after successful probe = %v, want Closed", trk.StateOf(1))
	}
}
