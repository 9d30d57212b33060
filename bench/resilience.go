package bench

import (
	"fmt"
	"io"

	"hamoffload/internal/faults"
	"hamoffload/internal/simtime"
	"hamoffload/machine"
	"hamoffload/offload"
	"hamoffload/sched"
	"hamoffload/sched/health"
)

// Tail latency under a gray failure: one of two VEs degrades to Factor x
// its nominal service time (a window-mode SlowDown plan — the fail-slow VE
// of docs/FAULTS.md) while a round-robin workload keeps offloading to both.
// Four configurations isolate what each resilience mechanism buys back:
//
//   - baseline: retries armed, no hedging, no health scheduling — every
//     other offload eats the sick VE's full latency.
//   - hedged: offloads still in flight after the hedge delay re-issue to
//     the healthy VE and the first settled copy wins, capping the tail at
//     roughly delay + healthy latency.
//   - breaker: health-scored scheduling ejects the sick VE once its EWMA
//     is an outlier, so only the strike-window offloads pay full price.
//   - hedged-breaker: both — hedging bounds the strike-window offloads the
//     breaker has not yet ejected, the breaker keeps steady-state traffic
//     off the sick VE, and hedge-target selection avoids ejected nodes.
//
// Everything runs on the simulated clock, so the percentiles are exactly
// reproducible; BENCH_resilience.json pins them, and the row's Gate in
// experiments.go is the design target that hedged-breaker recovers at least
// 2x of the baseline's p99.9.

// ResilienceConfig parameterises the gray-failure tail-latency experiment.
type ResilienceConfig struct {
	Offloads int     // timed sync offloads per mode (default 400)
	Warmup   int     // untimed warm-up offloads per mode (default 20)
	VecN     int64   // result vector length per offload (default 2048)
	Factor   float64 // sick VE degradation factor (default 10)
	Seed     uint64  // seeds hedge-delay and backoff jitter (default 42)
	// HedgeDelay is how long an offload may stay in flight before the hedge
	// fires; set between the healthy and sick latencies (default 40 us).
	HedgeDelay machine.Duration
}

func (c *ResilienceConfig) fill() {
	if c.Offloads <= 0 {
		c.Offloads = 400
	}
	if c.Warmup <= 0 {
		c.Warmup = 20
	}
	if c.VecN <= 0 {
		c.VecN = 2048
	}
	if c.Factor <= 1 {
		c.Factor = 10
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.HedgeDelay <= 0 {
		c.HedgeDelay = 40 * machine.Microsecond
	}
}

// resilienceVec is the experiment's kernel: a vector result big enough that
// the sick VE's degraded transfer path dominates the offload latency.
var resilienceVec = offload.NewFunc1[[]float64]("bench.resilience.vec",
	func(c *offload.Ctx, n int64) ([]float64, error) {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i)
		}
		return out, nil
	})

// ResilienceMode is one configuration of the experiment.
type ResilienceMode struct {
	Name        string
	Hedging     bool
	Breaker     bool
	Hedges      int64 // hedged requests issued
	HedgeWins   int64 // offloads settled by the hedge
	Retries     int64
	Transitions int64 // breaker state transitions
	Stats       Stats // per-offload latency, us of simulated time
}

// ResilienceResult is the full four-mode comparison.
type ResilienceResult struct {
	Factor     float64
	HedgeDelay machine.Duration
	Modes      []ResilienceMode
}

// resiliencePlan degrades VE 0 (application node 1) by factor for the whole
// run: the canonical sick-but-alive card.
func resiliencePlan(factor float64) *faults.Plan {
	return &faults.Plan{Rules: []faults.Rule{
		{Kind: faults.SlowDown, Site: faults.SiteAny, Node: 0, Factor: factor,
			Until: simtime.Time(1 << 62)},
	}}
}

// measureResilienceMode runs one configuration on a fresh two-VE machine
// and returns its per-offload latency samples and counters.
func measureResilienceMode(cfg ResilienceConfig, mode *ResilienceMode) ([]float64, error) {
	cfg.fill()
	nodes := []offload.NodeID{1, 2}
	var trk *health.Tracker
	opts := machine.ProtocolOptions{
		BufSize: 1 << 16,
		Retry: offload.FaultTolerance{
			MaxRetries:  3,
			BackoffBase: machine.Microsecond,
			BackoffMax:  20 * machine.Microsecond,
			Seed:        cfg.Seed,
		},
	}
	if mode.Hedging {
		opts.Hedge = offload.HedgePolicy{
			Delay:   cfg.HedgeDelay,
			Targets: nodes,
			Healthy: func(n offload.NodeID) bool { return trk == nil || trk.Allows(n) },
			Seed:    cfg.Seed,
		}
		opts.RetryBudget = offload.RetryBudget{Tokens: 64, Refill: 50 * machine.Microsecond}
	}
	var samples []float64
	mcfg := machine.Config{VEs: 2, Faults: resiliencePlan(cfg.Factor)}
	err := withRuntime(mcfg, true, opts, func(p *machine.Proc, rt *offload.Runtime) error {
		pol := sched.RoundRobin()
		if mode.Breaker {
			trk = health.New(health.Config{
				OutlierFactor:  3,
				OutlierStrikes: 4,
				FailureStrikes: 3,
				OpenFor:        5 * machine.Millisecond,
			}, nodes, rt.SimNow)
			pol = sched.HealthAware(pol, trk)
		}
		inflight := make([]int, len(nodes))
		for i := 0; i < cfg.Warmup+cfg.Offloads; i++ {
			node := nodes[pol.Pick(i, nodes, inflight)]
			start := p.Now()
			_, err := offload.Sync(rt, node, resilienceVec.Bind(cfg.VecN))
			lat := p.Now().Sub(start)
			if trk != nil {
				trk.Observe(node, lat, err != nil)
			}
			if err != nil {
				return err
			}
			if i >= cfg.Warmup {
				samples = append(samples, lat.Microseconds())
			}
		}
		mode.Hedges = rt.Hedges()
		mode.HedgeWins = rt.HedgeWins()
		mode.Retries = rt.Retries()
		if trk != nil {
			mode.Transitions = trk.Transitions()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return samples, nil
}

// Resilience runs the four-mode gray-failure comparison.
func Resilience(cfg ResilienceConfig) (ResilienceResult, error) {
	cfg.fill()
	res := ResilienceResult{Factor: cfg.Factor, HedgeDelay: cfg.HedgeDelay}
	for _, mode := range []ResilienceMode{
		{Name: "baseline"},
		{Name: "hedged", Hedging: true},
		{Name: "breaker", Breaker: true},
		{Name: "hedged-breaker", Hedging: true, Breaker: true},
	} {
		samples, err := measureResilienceMode(cfg, &mode)
		if err != nil {
			return res, fmt.Errorf("bench: resilience %s: %w", mode.Name, err)
		}
		mode.Stats = NewStats(samples)
		res.Modes = append(res.Modes, mode)
	}
	return res, nil
}

// ResilienceReport runs the comparison and shapes it as a regression
// report: one entry per mode, named after the mode.
func ResilienceReport(cfg ResilienceConfig) (Report, error) {
	res, err := Resilience(cfg)
	if err != nil {
		return Report{}, err
	}
	r := Report{Experiment: "resilience"}
	for _, mode := range res.Modes {
		r.Entries = append(r.Entries, ReportEntry{Name: mode.Name, Stats: mode.Stats})
	}
	return r, nil
}

// RenderResilience prints the comparison as a fixed-width table.
func RenderResilience(w io.Writer, r ResilienceResult) {
	fmt.Fprintf(w, "Gray-failure tail latency — DMA protocol, VE 1 of 2 degraded %gx, hedge delay %v\n",
		r.Factor, r.HedgeDelay)
	fmt.Fprintf(w, "%-16s  %8s  %8s  %8s  %8s  %7s  %6s  %8s  %6s\n",
		"mode", "p50 us", "p99 us", "p99.9 us", "mean us", "hedges", "wins", "retries", "trans")
	for _, m := range r.Modes {
		fmt.Fprintf(w, "%-16s  %8.2f  %8.2f  %8.2f  %8.2f  %7d  %6d  %8d  %6d\n",
			m.Name, m.Stats.P50US, m.Stats.P99US, m.Stats.P999US, m.Stats.MeanUS,
			m.Hedges, m.HedgeWins, m.Retries, m.Transitions)
	}
	base, hb := r.Modes[0].Stats, r.Modes[len(r.Modes)-1].Stats
	if hb.P999US > 0 {
		fmt.Fprintf(w, "p99.9 recovered: %.2fx (baseline %.2f us -> hedged-breaker %.2f us)\n",
			base.P999US/hb.P999US, base.P999US, hb.P999US)
	}
}
