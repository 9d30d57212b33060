package machine_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"hamoffload/internal/faults"
	"hamoffload/internal/simtime"
	"hamoffload/internal/topology"
	"hamoffload/internal/trace"
	"hamoffload/machine"
	"hamoffload/offload"
	"hamoffload/sched"
	"hamoffload/sched/health"
)

// This file is the deterministic chaos sweep: a fixed offload workload runs
// under an aggressive seeded fault plan — injected DMA errors, payload bit
// flips, a VEOS stall window — with the retry policy armed, and two fresh
// runs must agree bit for bit on every observable: results, error strings,
// retry/timeout/fault counters, the final simulated clock, and the exported
// Chrome trace. Crashes are exercised separately (the conformance fault
// tests); this sweep pins down that surviving faults costs no determinism.

var chaosVec = offload.NewFunc1[[]float64]("chaos.vec",
	func(c *offload.Ctx, n int64) ([]float64, error) {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i)*0.25 + float64(n)
		}
		return out, nil
	})

// chaosPlan is the sweep's fault schedule. The op-scheduled transfer errors
// land mid-workload (clear of the unretried connect sequence), the bit
// flips are drawn from the seed at a rate that corrupts several payloads
// per run, and the stall window slows every VEOS operation it covers.
func chaosPlan(seed uint64) *faults.Plan {
	return &faults.Plan{Seed: seed, Rules: []faults.Rule{
		{Kind: faults.DMAError, Site: faults.SitePrivDMA, Node: faults.AnyNode,
			AfterOp: 60, Every: 9, Count: 12},
		{Kind: faults.DMAError, Site: faults.SiteUserDMA, Node: faults.AnyNode,
			AfterOp: 5, Every: 7, Count: 8},
		// The DMA protocol's responses ride on flip-proof SHM word stores,
		// so its retry path is only reachable through corrupted user-DMA
		// message fetches — hence the heavier rate on that site.
		{Kind: faults.BitFlip, Site: faults.SiteUserDMA, Node: faults.AnyNode, Rate: 0.25},
		{Kind: faults.BitFlip, Node: faults.AnyNode, Rate: 0.03},
		{Kind: faults.Stall, Site: faults.SiteVEOS, Node: faults.AnyNode,
			From: simtime.Time(50 * simtime.Microsecond), Until: simtime.Time(150 * simtime.Microsecond)},
	}}
}

// chaosOutcome is everything one sweep run can observe.
type chaosOutcome struct {
	observations []string
	retries      int64
	timeouts     int64
	injected     uint64
	finalTime    machine.Duration
	chromeTrace  []byte
}

// chaosRun executes the workload on a fresh machine under plan and collects
// the outcome. Errors from individual offloads are observations, not test
// failures: the sweep asserts reproducibility, not fault-freeness.
func chaosRun(t *testing.T, protocol string, plan *faults.Plan) chaosOutcome {
	t.Helper()
	tr := trace.NewTracer()
	w := machine.World{Config: machine.Config{VEs: 1, Faults: plan}, DMA: protocol == "dma",
		Options: machine.ProtocolOptions{
			OffloadTimeout: 20 * machine.Millisecond,
			Retry: offload.FaultTolerance{
				MaxRetries:  6,
				BackoffBase: machine.Microsecond,
				BackoffMax:  20 * machine.Microsecond,
			},
		}}
	var out chaosOutcome
	w = w.Tuned(func(t *topology.Timing) { t.Tracer = tr })
	m, err := w.Run(func(_ *machine.Proc, _ *machine.Machine, rt *offload.Runtime) error {
		for i := 0; i < 40; i++ {
			n := int64(8 + (i%7)*31)
			v, err := offload.Sync(rt, 1, chaosVec.Bind(n))
			if errors.Is(err, offload.ErrOffloadTimeout) {
				out.timeouts++
			}
			if err != nil {
				out.observations = append(out.observations, fmt.Sprintf("%d: ERR %v", i, err))
				continue
			}
			sum := 0.0
			for _, x := range v {
				sum += x
			}
			out.observations = append(out.observations, fmt.Sprintf("%d: len %d sum %v", i, len(v), sum))
		}
		out.retries = rt.Retries()
		return nil
	})
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	out.injected = m.Timing.Faults.Injected()
	out.finalTime = m.Now()
	var buf bytes.Buffer
	if err := tr.ExportChrome(&buf); err != nil {
		t.Fatalf("ExportChrome: %v", err)
	}
	out.chromeTrace = buf.Bytes()
	return out
}

func TestChaosSweepDeterminism(t *testing.T) {
	for _, protocol := range []string{"veo", "dma"} {
		t.Run(protocol, func(t *testing.T) {
			a := chaosRun(t, protocol, chaosPlan(1234))
			b := chaosRun(t, protocol, chaosPlan(1234))

			// The sweep must actually exercise the fault machinery...
			if a.injected == 0 {
				t.Fatalf("no faults injected; the sweep exercises nothing")
			}
			if a.retries == 0 {
				t.Errorf("no retries performed; the fault pressure is too low")
			}
			// ...and the workload must survive it: all 40 offloads observed.
			if len(a.observations) != 40 {
				t.Fatalf("got %d observations, want 40", len(a.observations))
			}

			// Bit-identical reproduction across fresh runs.
			if a.retries != b.retries || a.timeouts != b.timeouts || a.injected != b.injected {
				t.Errorf("counters diverge: run A retries=%d timeouts=%d injected=%d, run B retries=%d timeouts=%d injected=%d",
					a.retries, a.timeouts, a.injected, b.retries, b.timeouts, b.injected)
			}
			if a.finalTime != b.finalTime {
				t.Errorf("final simulated time diverges: %v != %v", a.finalTime, b.finalTime)
			}
			for i := range a.observations {
				if i < len(b.observations) && a.observations[i] != b.observations[i] {
					t.Errorf("observation %d diverges:\n  A: %s\n  B: %s",
						i, a.observations[i], b.observations[i])
				}
			}
			if len(a.observations) != len(b.observations) {
				t.Errorf("observation counts diverge: %d != %d", len(a.observations), len(b.observations))
			}
			if !bytes.Equal(a.chromeTrace, b.chromeTrace) {
				t.Errorf("Chrome trace exports diverge (%d vs %d bytes)",
					len(a.chromeTrace), len(b.chromeTrace))
			}
		})
	}
}

// TestChaosDifferentSeedsDiverge is the sanity inverse: a different plan
// seed must shift the probabilistic fault stream, so the two sweeps cannot
// be identical in every observable. (Op-scheduled rules are seed-blind, so
// only the counters and timing are compared, not the result values.)
func TestChaosDifferentSeedsDiverge(t *testing.T) {
	a := chaosRun(t, "dma", chaosPlan(1234))
	b := chaosRun(t, "dma", chaosPlan(99991))
	if a.injected == b.injected && a.finalTime == b.finalTime && a.retries == b.retries {
		t.Errorf("seeds 1234 and 99991 produced identical fault streams (injected=%d retries=%d time=%v); the seed is not feeding the stream",
			a.injected, a.retries, a.finalTime)
	}
}

// The gray sweep: the same determinism contract for the fail-slow stack.
// One VE degrades to 10x its nominal service time inside a window (plus
// seed-drawn jitter everywhere), and the full resilience machinery runs on
// top — health-scored scheduling with circuit breakers, hedged requests,
// retry budgets, seeded backoff jitter. Two fresh runs must agree bit for
// bit on every observable, including the Chrome trace with its breaker and
// hedge instants.

// grayPlan degrades VE 0 (application node 1) by Factor inside a window
// that covers the whole workload, and sprinkles seed-drawn jitter on every
// PCIe crossing so slow responses are erratic, not cleanly proportional.
func grayPlan(seed uint64) *faults.Plan {
	return &faults.Plan{Seed: seed, Rules: []faults.Rule{
		{Kind: faults.SlowDown, Site: faults.SiteAny, Node: 0, Factor: 10,
			From: simtime.Time(20 * simtime.Microsecond), Until: simtime.Time(1 << 62)},
		{Kind: faults.Jitter, Site: faults.SitePCIe, Node: faults.AnyNode,
			Rate: 0.4, JitterMax: 2 * simtime.Microsecond},
	}}
}

// grayOutcome is everything one gray sweep run can observe.
type grayOutcome struct {
	observations []string
	hedges       int64
	hedgeWins    int64
	budgetDenied int64
	retries      int64
	transitions  int64
	states       string
	injected     uint64
	finalTime    machine.Duration
	chromeTrace  []byte
}

// grayRun executes the health-scheduled workload on a fresh 3-VE machine
// under plan with hedging and budgets armed, and collects the outcome.
func grayRun(t *testing.T, seed uint64) grayOutcome {
	t.Helper()
	tr := trace.NewTracer()
	nodes := []offload.NodeID{1, 2, 3}
	var trk *health.Tracker
	w := machine.World{Config: machine.Config{VEs: 3, Faults: grayPlan(seed)}, DMA: true,
		Options: machine.ProtocolOptions{
			BufSize: 1 << 16,
			Retry: offload.FaultTolerance{
				MaxRetries:  4,
				BackoffBase: machine.Microsecond,
				BackoffMax:  20 * machine.Microsecond,
				Seed:        seed,
			},
			Hedge: offload.HedgePolicy{
				Delay:   40 * machine.Microsecond,
				Targets: nodes,
				Healthy: func(n offload.NodeID) bool { return trk.Allows(n) },
				Seed:    seed,
			},
			RetryBudget: offload.RetryBudget{Tokens: 64, Refill: 50 * machine.Microsecond},
		}}
	var out grayOutcome
	w = w.Tuned(func(t *topology.Timing) { t.Tracer = tr })
	m, err := w.Run(func(p *machine.Proc, m *machine.Machine, rt *offload.Runtime) error {
		trk = health.New(health.Config{
			OutlierFactor:  3,
			OutlierStrikes: 4,
			FailureStrikes: 3,
			OpenFor:        400 * machine.Microsecond,
		}, nodes, rt.SimNow)
		pol := sched.HealthAware(sched.RoundRobin(), trk)
		inflight := make([]int, len(nodes))
		for i := 0; i < 120; i++ {
			node := nodes[pol.Pick(i, nodes, inflight)]
			n := int64(2048 + (i%7)*512)
			begin := rt.SimNow()
			v, err := offload.Sync(rt, node, chaosVec.Bind(n))
			trk.Observe(node, rt.SimNow().Sub(begin), err != nil)
			if err != nil {
				out.observations = append(out.observations, fmt.Sprintf("%d: node %d ERR %v", i, node, err))
				continue
			}
			sum := 0.0
			for _, x := range v {
				sum += x
			}
			out.observations = append(out.observations, fmt.Sprintf("%d: node %d len %d sum %v", i, node, len(v), sum))
		}
		out.hedges = rt.Hedges()
		out.hedgeWins = rt.HedgeWins()
		out.budgetDenied = rt.BudgetDenied()
		out.retries = rt.Retries()
		out.transitions = trk.Transitions()
		out.states = fmt.Sprintf("%v %v %v", trk.StateOf(1), trk.StateOf(2), trk.StateOf(3))
		return nil
	})
	if err != nil {
		t.Fatalf("gray run: %v", err)
	}
	out.injected = m.Timing.Faults.Injected()
	out.finalTime = m.Now()
	var buf bytes.Buffer
	if err := tr.ExportChrome(&buf); err != nil {
		t.Fatalf("ExportChrome: %v", err)
	}
	out.chromeTrace = buf.Bytes()
	return out
}

func TestChaosGraySweepDeterminism(t *testing.T) {
	a := grayRun(t, 4242)
	b := grayRun(t, 4242)

	// The sweep must exercise the whole gray stack: injected slowdowns,
	// hedges racing the sick node, breaker transitions routing around it.
	if a.injected == 0 {
		t.Fatalf("no faults injected; the sweep exercises nothing")
	}
	if a.hedges == 0 {
		t.Errorf("no hedges issued; the hedge delay never tripped")
	}
	if a.transitions == 0 {
		t.Errorf("no breaker transitions; the degraded VE was never ejected")
	}
	if len(a.observations) != 120 {
		t.Fatalf("got %d observations, want 120", len(a.observations))
	}

	// Bit-identical reproduction across fresh runs.
	if a.hedges != b.hedges || a.hedgeWins != b.hedgeWins ||
		a.budgetDenied != b.budgetDenied || a.retries != b.retries ||
		a.transitions != b.transitions || a.injected != b.injected {
		t.Errorf("counters diverge:\n  A: hedges=%d wins=%d denied=%d retries=%d transitions=%d injected=%d\n  B: hedges=%d wins=%d denied=%d retries=%d transitions=%d injected=%d",
			a.hedges, a.hedgeWins, a.budgetDenied, a.retries, a.transitions, a.injected,
			b.hedges, b.hedgeWins, b.budgetDenied, b.retries, b.transitions, b.injected)
	}
	if a.states != b.states {
		t.Errorf("breaker states diverge: %q != %q", a.states, b.states)
	}
	if a.finalTime != b.finalTime {
		t.Errorf("final simulated time diverges: %v != %v", a.finalTime, b.finalTime)
	}
	for i := range a.observations {
		if i < len(b.observations) && a.observations[i] != b.observations[i] {
			t.Errorf("observation %d diverges:\n  A: %s\n  B: %s", i, a.observations[i], b.observations[i])
		}
	}
	if len(a.observations) != len(b.observations) {
		t.Errorf("observation counts diverge: %d != %d", len(a.observations), len(b.observations))
	}
	if !bytes.Equal(a.chromeTrace, b.chromeTrace) {
		t.Errorf("Chrome trace exports diverge (%d vs %d bytes)", len(a.chromeTrace), len(b.chromeTrace))
	}
}

// TestChaosGrayDifferentSeedsDiverge: a different seed shifts the jitter
// stream, the backoff jitter and the hedge-delay jitter, so the sweeps
// cannot agree on every observable.
func TestChaosGrayDifferentSeedsDiverge(t *testing.T) {
	a := grayRun(t, 4242)
	b := grayRun(t, 171717)
	if a.injected == b.injected && a.finalTime == b.finalTime && a.hedges == b.hedges {
		t.Errorf("seeds 4242 and 171717 produced identical gray streams (injected=%d hedges=%d time=%v); the seed is not feeding the stream",
			a.injected, a.hedges, a.finalTime)
	}
}
