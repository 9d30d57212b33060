package bench

import (
	"fmt"
	"io"

	"hamoffload/gateway"
	"hamoffload/internal/faults"
	"hamoffload/internal/simtime"
	"hamoffload/internal/topology"
	"hamoffload/machine"
	"hamoffload/offload"
)

// The serving experiment drives the gateway package at production scale: an
// open-loop traffic generator offers a million requests to an 8-VE machine
// through QoS-classed admission, tenant quotas and work-stealing dispatch,
// while a windowed gray-failure plan degrades one VE mid-run. Arrivals are
// open loop — the generator never waits for completions, so queueing delay
// shows up in the latency distribution instead of throttling the offered
// load (the coordinated-omission trap).
//
// The arrival process composes three deterministic parts, all drawn from
// the splitmix64 stream seeded by ServingConfig.Seed:
//
//   - a diurnal triangle wave sweeping the base inter-arrival gap between
//     GapTroughNS and GapPeakNS over DiurnalCycles cycles (integer math —
//     no trig, so baselines are bit-identical across platforms);
//   - uniform per-arrival jitter of 0.5x..1.5x the base gap;
//   - Poisson-ish bursts: roughly one arrival in 96 triggers a burst of 32
//     arrivals at a quarter of the current gap.
//
// Everything runs on the simulated clock, so two runs with the same seed
// produce byte-identical reports (and Chrome traces, when armed);
// BENCH_serving.json pins the per-class latency distributions and benchreg
// enforces the QoS design gate (latency-critical p99 well under
// best-effort p99).

// ServingConfig parameterises the serving-gateway experiment's offered load.
type ServingConfig struct {
	Offloads int    // arrivals to offer (default 1_000_000)
	Seed     uint64 // seeds the arrival process (default 42)
	// GapPeakNS / GapTroughNS bound the diurnal base inter-arrival gap in
	// nanoseconds: the peak of the wave offers one request per GapPeakNS
	// (defaults 250 / 2500 — the peak oversubscribes the fleet, the trough
	// leaves it mostly idle).
	GapPeakNS, GapTroughNS int64
	// DiurnalCycles is how many peak-trough cycles span the run (default 4).
	DiurnalCycles int
}

// servingGrayFactor degrades one VE (node 1) to this many times its nominal
// service time for the middle ~30% of the expected run.
const servingGrayFactor = 4.0

func (c *ServingConfig) fill() {
	if c.Offloads <= 0 {
		c.Offloads = 1_000_000
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.GapPeakNS <= 0 {
		c.GapPeakNS = 250
	}
	if c.GapTroughNS <= 0 {
		c.GapTroughNS = 2500
	}
	if c.DiurnalCycles <= 0 {
		c.DiurnalCycles = 4
	}
}

// servingWork is the per-request kernel: a roofline-charged vector op of a
// few microseconds, so the fleet is VE-bound — queues build at the diurnal
// peaks instead of the host wire path being the bottleneck.
var servingWork = offload.NewFunc1[offload.Unit]("bench.serving.work",
	func(c *offload.Ctx, n int64) (offload.Unit, error) {
		c.ChargeVector(n*6_000_000, n*750_000, 8)
		return offload.Unit{}, nil
	})

// ServingResult is one run of the experiment.
type ServingResult struct {
	VEs, Offloads int
	Seed          uint64
	Elapsed       simtime.Duration // simulated span of the whole run
	GrayFrom      simtime.Time
	GrayUntil     simtime.Time
	Slowed        uint64 // operations the gray window slowed down
	Gateway       gateway.Report
	PerClass      [gateway.NumClasses]Stats // exact nearest-rank percentiles
}

// servingGap returns arrival i's inter-arrival gap in picoseconds.
// burstLeft is decremented across calls while a burst is active.
func servingGap(cfg *ServingConfig, i int, burstLeft *int) simtime.Duration {
	period := cfg.Offloads / cfg.DiurnalCycles
	if period <= 0 {
		period = 1
	}
	// Integer triangle wave: tri runs 0 -> scale -> 0 over one period.
	const scale = 1 << 16
	pos := (i % period) * 2 * scale / period
	tri := pos
	if tri > scale {
		tri = 2*scale - tri
	}
	// tri=scale is the traffic peak (smallest gap).
	baseNS := cfg.GapTroughNS - (cfg.GapTroughNS-cfg.GapPeakNS)*int64(tri)/scale
	// Uniform 0.5x..1.5x jitter.
	j := faults.Mix(cfg.Seed, 0xA1, uint64(i))
	gapNS := baseNS * int64(50+j%101) / 100
	// Bursts: ~1/96 arrivals opens a 32-arrival burst at quarter gap.
	if *burstLeft > 0 {
		*burstLeft--
		gapNS /= 4
	} else if faults.Mix(cfg.Seed, 0xB2, uint64(i))%96 == 0 {
		*burstLeft = 32
	}
	if gapNS < 1 {
		gapNS = 1
	}
	return simtime.Duration(gapNS) * simtime.Nanosecond
}

// Serving runs the million-offload serving sweep over the DMA protocol on a
// machine of w (8 VEs unless w says otherwise).
func Serving(w machine.World, cfg ServingConfig) (ServingResult, error) {
	cfg.fill()
	if w.VEs == 0 {
		w.VEs = 8
	}
	w.DMA = true
	// A serving fleet coarsens the VE receive-flag poll to trade a couple of
	// microseconds of pickup latency (noise against multi-microsecond kernels
	// and SLO targets) for far fewer wasted poll cycles on idle cards — the
	// ablate-poll experiment quantifies this trade-off.
	w = w.Tuned(func(t *topology.Timing) { t.HAMVEPollInterval = 2 * simtime.Microsecond })
	res := ServingResult{VEs: w.VEs, Offloads: cfg.Offloads, Seed: cfg.Seed}

	// The gray window sits on the absolute simulated clock, so the fault plan
	// is fixed before the machine exists, while traffic starts when the
	// connect ends — seconds in, for eight VEs. A connect-only run of the same
	// World, untraced, finds that instant; the real run must reproduce it.
	var epoch simtime.Time
	probe := w.Tuned(func(t *topology.Timing) { t.Tracer = nil })
	if _, err := probe.Run(func(p *machine.Proc, _ *machine.Machine, _ *offload.Runtime) error {
		epoch = p.Now()
		return nil
	}); err != nil {
		return res, err
	}
	// Expected run length from the mean gap (trough+peak)/2 x jitter mean 1.0;
	// the gray window brackets the middle ~30% of it, in which VE 0
	// (application node 1) is the fail-slow card of docs/FAULTS.md.
	meanGapNS := (cfg.GapTroughNS + cfg.GapPeakNS) / 2
	expected := simtime.Duration(int64(cfg.Offloads)*meanGapNS) * simtime.Nanosecond
	res.GrayFrom = epoch.Add(expected * 35 / 100)
	res.GrayUntil = epoch.Add(expected * 65 / 100)
	w.Faults = &faults.Plan{Rules: []faults.Rule{{Kind: faults.SlowDown, Site: faults.SiteAny, Node: 0,
		Factor: servingGrayFactor, From: res.GrayFrom, Until: res.GrayUntil}}}

	_, err := w.Run(func(p *machine.Proc, m *machine.Machine, rt *offload.Runtime) error {
		if p.Now() != epoch {
			return fmt.Errorf("bench: serving connect ended at %v, its probe at %v", p.Now(), epoch)
		}
		nodes := make([]offload.NodeID, w.VEs)
		for i := range nodes {
			nodes[i] = offload.NodeID(i + 1)
		}
		gw, gerr := gateway.New[offload.Unit](rt, nodes, gateway.Config{
			MaxQueued: 512,
			Window:    6,
			MaxBatch:  3,
			Tenants: []gateway.TenantConfig{
				// The metered tenant's sustained rate cap (one request per
				// 2 µs = 0.5 M/s) sits under its peak-hour demand, so quota
				// rejections concentrate at the diurnal peaks.
				{Name: "metered", Burst: 64, Refill: 6 * machine.Microsecond},
				{Name: "gold"},
				{Name: "silver"},
			},
			SLOTargets: [gateway.NumClasses]simtime.Duration{
				120 * simtime.Microsecond, // latency-critical
				500 * simtime.Microsecond, // batch
				2 * simtime.Millisecond,   // best-effort
			},
			SLOWindow:   5 * simtime.Millisecond,
			KeepSamples: true,
		})
		if gerr != nil {
			return gerr
		}
		start := p.Now()
		burstLeft := 0
		for i := 0; i < cfg.Offloads; i++ {
			p.Sleep(servingGap(&cfg, i, &burstLeft))
			// Polling every few arrivals keeps settle-discovery latency well
			// under the SLO targets without paying a full live-list sweep per
			// sub-microsecond arrival gap.
			if i%8 == 0 {
				gw.Poll()
			}
			r := faults.Mix(cfg.Seed, 0xC3, uint64(i))
			// Class mix 25% latency-critical / 50% batch / 25% best-effort;
			// tenant mix 25% metered / 50% gold / 25% silver, independent.
			var class gateway.Class
			switch r % 4 {
			case 0:
				class = gateway.LatencyCritical
			case 1, 2:
				class = gateway.Batch
			default:
				class = gateway.BestEffort
			}
			var tenant int
			switch (r >> 16) % 4 {
			case 0:
				tenant = 0
			case 1, 2:
				tenant = 1
			default:
				tenant = 2
			}
			_, serr := gw.Submit(tenant, class, servingWork.Bind(int64(1+(r>>32)%4)))
			if serr != nil {
				// Quota and share rejections are the experiment's point;
				// anything else is a bug.
				if !gateway.IsRejection(serr) {
					return serr
				}
			}
		}
		gw.Drain()
		res.Elapsed = p.Now().Sub(start)
		res.Gateway = gw.Report()
		for c := range res.PerClass {
			res.PerClass[c] = NewStats(res.Gateway.Classes[c].Samples)
		}
		res.Slowed = m.Timing.Faults.Injected()
		return nil
	})
	return res, err
}

// ServingReport runs the sweep and shapes the per-class latency
// distributions as a regression report.
func ServingReport(w machine.World, cfg ServingConfig) (Report, error) {
	res, err := Serving(w, cfg)
	if err != nil {
		return Report{}, err
	}
	r := Report{Experiment: "serving"}
	for c := range res.PerClass {
		r.Entries = append(r.Entries, ReportEntry{
			Name:  gateway.Class(c).String(),
			Stats: res.PerClass[c],
		})
	}
	return r, nil
}

// RenderServing prints the sweep as fixed-width tables. Everything printed
// is simulated time, so output is byte-identical across runs of one seed.
func RenderServing(w io.Writer, r ServingResult) {
	fmt.Fprintf(w, "Serving gateway — DMA protocol, %d VEs, %d offered requests, seed %d\n",
		r.VEs, r.Offloads, r.Seed)
	fmt.Fprintf(w, "simulated span %v; VE 1 degraded %gx in [%v, %v)\n\n",
		r.Elapsed, servingGrayFactor, r.GrayFrom, r.GrayUntil)

	fmt.Fprintf(w, "%-17s  %9s  %8s  %8s  %9s  %9s  %9s  %9s  %7s\n",
		"class", "admitted", "r-quota", "r-share", "p50 us", "p99 us", "p99.9 us", "slo-viol", "burn")
	for c, cl := range r.Gateway.Classes {
		st := r.PerClass[c]
		fmt.Fprintf(w, "%-17s  %9d  %8d  %8d  %9.2f  %9.2f  %9.2f  %9d  %7.2f\n",
			cl.Class, cl.Admitted, cl.RejectedQuota, cl.RejectedShare,
			st.P50US, st.P99US, st.P999US, cl.SLO.Violations, cl.SLO.BurnRate)
	}
	fmt.Fprintln(w)

	fmt.Fprintf(w, "%-17s  %9s  %9s\n", "tenant", "admitted", "rejected")
	for _, tn := range r.Gateway.Tenants {
		fmt.Fprintf(w, "%-17s  %9d  %9d\n", tn.Name, tn.Admitted, tn.Rejected)
	}
	fmt.Fprintln(w)

	fmt.Fprintf(w, "%-17s  %9s  %9s  %9s\n", "ve", "issued", "stolen-in", "max-queue")
	for _, ve := range r.Gateway.VEs {
		fmt.Fprintf(w, "ve %-14d  %9d  %9d  %9d\n", ve.Node, ve.Issued, ve.StolenIn, ve.MaxQueue)
	}
	fmt.Fprintf(w, "\nsteal operations: %d; total rejected: %d of %d offered\n",
		r.Gateway.Steals, r.Gateway.Rejected(), r.Gateway.Submitted)
}
