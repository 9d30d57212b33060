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
	Offloads int    // timed sync offloads per mode (default 400)
	Warmup   int    // untimed warm-up offloads per mode (default 20)
	VecN     int64  // result vector length per offload (default 2048)
	Seed     uint64 // seeds hedge-delay and backoff jitter (default 42)
}

const (
	// resilienceFactor is the sick VE's degradation factor.
	resilienceFactor = 10.0
	// resilienceHedgeDelay is how long an offload may stay in flight before
	// the hedge fires: between the healthy and the sick latencies.
	resilienceHedgeDelay = 40 * machine.Microsecond
)

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
	if c.Seed == 0 {
		c.Seed = 42
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

// measureResilienceMode runs one configuration on a fresh machine of w —
// two VEs, VE 0 (application node 1) degraded for the whole run: the
// canonical sick-but-alive card — and fills in its latency and counters.
func measureResilienceMode(w machine.World, cfg ResilienceConfig, mode *ResilienceMode) error {
	nodes := []offload.NodeID{1, 2}
	var trk *health.Tracker
	w.VEs, w.DMA = 2, true
	w.Faults = &faults.Plan{Rules: []faults.Rule{
		{Kind: faults.SlowDown, Site: faults.SiteAny, Node: 0, Factor: resilienceFactor,
			Until: simtime.Time(1 << 62)},
	}}
	w.Options = machine.ProtocolOptions{
		BufSize: 1 << 16,
		Retry: offload.FaultTolerance{
			MaxRetries:  3,
			BackoffBase: machine.Microsecond,
			BackoffMax:  20 * machine.Microsecond,
			Seed:        cfg.Seed,
		},
	}
	if mode.Hedging {
		w.Options.Hedge = offload.HedgePolicy{
			Delay:   resilienceHedgeDelay,
			Targets: nodes,
			Healthy: func(n offload.NodeID) bool { return trk == nil || trk.Allows(n) },
			Seed:    cfg.Seed,
		}
		w.Options.RetryBudget = offload.RetryBudget{Tokens: 64, Refill: 50 * machine.Microsecond}
	}
	var samples []float64
	_, err := w.Run(func(p *machine.Proc, _ *machine.Machine, rt *offload.Runtime) error {
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
	mode.Stats = NewStats(samples)
	return err
}

// Resilience runs the four-mode gray-failure comparison on machines of w.
func Resilience(w machine.World, cfg ResilienceConfig) ([]ResilienceMode, error) {
	cfg.fill()
	modes := []ResilienceMode{
		{Name: "baseline"},
		{Name: "hedged", Hedging: true},
		{Name: "breaker", Breaker: true},
		{Name: "hedged-breaker", Hedging: true, Breaker: true},
	}
	for i := range modes {
		if err := measureResilienceMode(w, cfg, &modes[i]); err != nil {
			return nil, fmt.Errorf("bench: resilience %s: %w", modes[i].Name, err)
		}
	}
	return modes, nil
}

// ResilienceReport runs the comparison and shapes it as a regression
// report: one entry per mode, named after the mode.
func ResilienceReport(w machine.World, cfg ResilienceConfig) (Report, error) {
	modes, err := Resilience(w, cfg)
	if err != nil {
		return Report{}, err
	}
	r := Report{Experiment: "resilience"}
	for _, mode := range modes {
		r.Entries = append(r.Entries, ReportEntry{Name: mode.Name, Stats: mode.Stats})
	}
	return r, nil
}

// RenderResilience prints the comparison as a fixed-width table.
func RenderResilience(w io.Writer, modes []ResilienceMode) {
	fmt.Fprintf(w, "Gray-failure tail latency — DMA protocol, VE 1 of 2 degraded %gx, hedge delay %v\n",
		resilienceFactor, resilienceHedgeDelay)
	fmt.Fprintf(w, "%-16s  %8s  %8s  %8s  %8s  %7s  %6s  %8s  %6s\n",
		"mode", "p50 us", "p99 us", "p99.9 us", "mean us", "hedges", "wins", "retries", "trans")
	for _, m := range modes {
		fmt.Fprintf(w, "%-16s  %8.2f  %8.2f  %8.2f  %8.2f  %7d  %6d  %8d  %6d\n",
			m.Name, m.Stats.P50US, m.Stats.P99US, m.Stats.P999US, m.Stats.MeanUS,
			m.Hedges, m.HedgeWins, m.Retries, m.Transitions)
	}
	base, hb := modes[0].Stats, modes[len(modes)-1].Stats
	if hb.P999US > 0 {
		fmt.Fprintf(w, "p99.9 recovered: %.2fx (baseline %.2f us -> hedged-breaker %.2f us)\n",
			base.P999US/hb.P999US, base.P999US, hb.P999US)
	}
}
