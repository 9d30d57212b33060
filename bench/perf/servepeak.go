package main

import (
	"errors"
	"slices"

	"hamoffload/gateway"
	"hamoffload/internal/faults"
	"hamoffload/internal/simtime"
	"hamoffload/internal/topology"
	"hamoffload/machine"
)

// arrival is one offered request of serve-peak's precomputed schedule.
type arrival struct {
	due    simtime.Duration // offset from the start of the timed region
	units  int64
	class  gateway.Class
	tenant int
	wave   int // 0 = trough quarter of the diurnal wave, 2 = peak quarter, 1 = between
}

// Arrival-process constants of serve-peak (the PR-10 serving sweep's shape):
// a diurnal triangle sweeps the base inter-arrival gap between trough and
// peak over four cycles, each gap is jittered ±50 %, and about one arrival in
// 96 opens a burst of 32 arrivals at a quarter of the current gap.
const (
	gapTroughNS   = 2500
	gapPeakNS     = 250
	diurnalCycles = 4
	burstOneIn    = 96
	burstLen      = 32
)

func genArrivals(seed uint64, n int) []arrival {
	r := newRNG(seed, 5)
	arr := make([]arrival, n)
	period := max(n/diurnalCycles, 1)
	const scale = 1 << 16
	var due simtime.Duration
	burstLeft := 0
	for i := range arr {
		tri := (i % period) * 2 * scale / period
		if tri > scale {
			tri = 2*scale - tri
		}
		gapNS := gapTroughNS - (gapTroughNS-gapPeakNS)*tri/scale
		gapNS = gapNS * (50 + r.intn(101)) / 100
		if burstLeft > 0 {
			burstLeft--
			gapNS /= 4
		} else if r.intn(burstOneIn) == 0 {
			burstLeft = burstLen
		}
		due += simtime.Duration(max(gapNS, 1)) * simtime.Nanosecond
		a := &arr[i]
		a.due = due
		a.units = int64(1 + r.intn(4))
		// 25 % latency-critical, 50 % batch, 25 % best-effort; tenants 25 %
		// metered, 50 % gold, 25 % silver, drawn independently.
		a.class = [4]gateway.Class{gateway.LatencyCritical, gateway.Batch, gateway.Batch, gateway.BestEffort}[r.intn(4)]
		a.tenant = [4]int{0, 1, 1, 2}[r.intn(4)]
		a.wave = 1
		if tri < scale/4 {
			a.wave = 0
		} else if tri >= 3*scale/4 {
			a.wave = 2
		}
	}
	return arr
}

var errStartMoved = errors.New("serve-peak: set-up ended at a different simulated time than on the scratch machine")

// sloTargets are the per-class latency limits serve-peak is judged against.
var sloTargets = [gateway.NumClasses]simtime.Duration{
	120 * simtime.Microsecond,
	500 * simtime.Microsecond,
	2 * simtime.Millisecond,
}

// serveSetUp builds the 8-VE serving fleet of the PR-10 configuration — a
// 2 µs VE poll interval, three classes, three tenants of which one is metered
// — warms every VE up and hands the gateway to body.
func serveSetUp(r *round, plan *faults.Plan, body func(*machine.Proc, *gateway.Gateway[int64]) error) error {
	err := r.newMachine(machine.Config{VEs: fleetVEs, Faults: plan}, func(t *topology.Timing) {
		t.HAMVEPollInterval = 2 * simtime.Microsecond
	})
	if err != nil {
		return err
	}
	return r.runMain(func(p *machine.Proc) error {
		rt, err := r.connect(false, machine.ProtocolOptions{})
		if err != nil {
			return err
		}
		defer func() { _ = rt.Finalize() }()
		gw, err := gateway.New[int64](rt, fleetNodes(), gateway.Config{
			MaxQueued: 512,
			Window:    6,
			MaxBatch:  3,
			Tenants: []gateway.TenantConfig{
				{Name: "metered", Burst: 64, Refill: 6 * machine.Microsecond},
				{Name: "gold"},
				{Name: "silver"},
			},
			SLOTargets: sloTargets,
			SLOWindow:  5 * simtime.Millisecond,
		})
		if err != nil {
			return err
		}
		for _, n := range gw.Nodes() {
			if err := warmUp(rt, n); err != nil {
				return err
			}
		}
		return body(p, gw)
	})
}

// runServePeak is the open loop: requests arrive on an absolute simulated
// schedule whether or not earlier ones have completed, are admitted or
// refused by the gateway, and are timed from when they were due.
func runServePeak(r *round) error {
	arr := genArrivals(r.seed, r.ops)
	// The fault plan's window sits on the absolute simulated clock and must be
	// fixed before the machine exists, while the schedule starts when set-up
	// ends — after about 7 s of simulated VE process creation. A first pass
	// through set-up on a scratch machine finds that instant; the real pass
	// must reproduce it.
	var start simtime.Time
	err := serveSetUp(r, nil, func(p *machine.Proc, _ *gateway.Gateway[int64]) error {
		start = p.Now()
		return nil
	})
	if err != nil {
		return err
	}
	// VE 0 (application node 1) runs 4× slow for the middle 30 % of the
	// schedule: the gray failure the stealing and placement logic exist for.
	end := arr[len(arr)-1].due
	plan := &faults.Plan{Rules: []faults.Rule{{
		Kind: faults.SlowDown, Site: faults.SiteAny, Node: 0, Factor: 4,
		From: start.Add(end * 35 / 100), Until: start.Add(end * 65 / 100),
	}}}
	return serveSetUp(r, plan, func(p *machine.Proc, gw *gateway.Gateway[int64]) error {
		if p.Now() != start {
			return errStartMoved
		}
		tickets := make([]*gateway.Ticket[int64], len(arr))
		late := make([]simtime.Duration, len(arr))
		st := newServeStats(len(arr))
		head := 0
		// harvest finalises the first `submitted` arrivals in order, as far as
		// they have settled, and drops their tickets: the driver holds only the
		// window of requests still inside the system, as a real front end would.
		harvest := func(submitted int) {
			for ; head < submitted; head++ {
				tk, a := tickets[head], &arr[head]
				if tk == nil {
					r.refuse()
					st.sloMiss++
					continue
				}
				if !tk.Done() {
					return
				}
				svc, _ := tk.Latency()
				v, verr := tk.Value()
				lat := late[head] + svc
				r.done(lat, verr == nil && v == vectorWant(a.units, int64(head)))
				st.observe(a, lat, svc)
				tickets[head] = nil
			}
		}

		r.beginTimed()
		for i := range arr {
			a := &arr[i]
			due := start.Add(a.due)
			if wait := due.Sub(p.Now()); wait > 0 {
				p.Sleep(wait)
			}
			if i%8 == 0 {
				t := r.tick()
				gw.Poll()
				r.spans.add("gateway.Poll", "gateway", t, r.tick(), "timed", i)
				harvest(i)
			}
			late[i] = p.Now().Sub(due)
			t := r.tick()
			tk, serr := gw.Submit(a.tenant, a.class, vectorKernel.Bind(a.units, int64(i)))
			r.spans.add("gateway.Submit", "gateway", t, r.tick(), "timed", i)
			if serr != nil && !gateway.IsRejection(serr) {
				return serr
			}
			tickets[i] = tk
		}
		t := r.tick()
		gw.Drain()
		r.spans.add("gateway.Drain", "gateway", t, r.tick(), "timed", len(arr))
		harvest(len(arr))
		r.endTimed()
		st.report(r, gw.Report(), late)
		return nil
	})
}

// serveStats accumulates serve-peak's per-class view of the timed region.
type serveStats struct {
	byClass [gateway.NumClasses][]simtime.Duration
	lcWave  [3][]simtime.Duration // latency-critical latencies by diurnal position
	svcSum  simtime.Duration      // admission → settle, summed over completed requests
	sloMiss int                   // refused, or completed later than the class target
}

func newServeStats(n int) *serveStats {
	s := &serveStats{}
	for c, share := range [gateway.NumClasses]int{4, 2, 4} {
		s.byClass[c] = make([]simtime.Duration, 0, n/share)
	}
	return s
}

func (s *serveStats) observe(a *arrival, lat, svc simtime.Duration) {
	s.byClass[a.class] = append(s.byClass[a.class], lat)
	if a.class == gateway.LatencyCritical {
		s.lcWave[a.wave] = append(s.lcWave[a.wave], lat)
	}
	s.svcSum += svc
	if lat > sloTargets[a.class] {
		s.sloMiss++
	}
}

func pctUS(v []simtime.Duration, permille int) float64 {
	if len(v) == 0 {
		return 0
	}
	slices.Sort(v)
	return percentile(v, permille).Microseconds()
}

func (s *serveStats) report(r *round, rep gateway.Report, late []simtime.Duration) {
	lc, batch, be := s.byClass[gateway.LatencyCritical], s.byClass[gateway.Batch], s.byClass[gateway.BestEffort]
	l := r.layer
	l["gateway.sim_lc_p50_us"] = pctUS(lc, 500)
	l["gateway.sim_lc_p99_us"] = pctUS(lc, 990)
	l["gateway.sim_lc_p999_us"] = pctUS(lc, 999)
	l["gateway.sim_batch_p99_us"] = pctUS(batch, 990)
	l["gateway.sim_be_p99_us"] = pctUS(be, 990)
	l["gateway.sim_lc_p99_us_trough"] = pctUS(s.lcWave[0], 990)
	l["gateway.sim_lc_p99_us_peak"] = pctUS(s.lcWave[2], 990)
	completed := len(lc) + len(batch) + len(be)
	// Ticket latency less the core offload span is what the gateway itself
	// adds: queueing, the Nagle hold and settle-discovery lag.
	l["gateway.sim_hold_us_mean"] = s.svcSum.Microseconds()/float64(max(completed, 1)) - r.sim.agg[aggOffload].meanUS()
	l["gateway.slo_miss_share"] = r.perOp(float64(s.sloMiss))
	var quota, share int64
	for _, c := range rep.Classes {
		quota += c.RejectedQuota
		share += c.RejectedShare
	}
	l["gateway.reject_share_quota"] = r.perOp(float64(quota))
	l["gateway.reject_share_overload"] = r.perOp(float64(share))
	l["gateway.steals_per_kop"] = 1000 * r.perOp(float64(rep.Steals))
	maxQueue := 0
	for _, ve := range rep.VEs {
		maxQueue = max(maxQueue, ve.MaxQueue)
	}
	l["gateway.max_queue"] = float64(maxQueue)
	l["gateway.gen_lag_p99_us"] = pctUS(late, 990)
	l["gateway.wall_submit_ns_per_op"] = r.perOp(r.spans.ns("gateway.Submit"))
	l["gateway.wall_poll_ns_per_op"] = r.perOp(r.spans.ns("gateway.Poll"))
	l["gateway.wall_drain_ms"] = r.spans.ns("gateway.Drain") / 1e6
}
