package main

import (
	"fmt"
	"runtime"
	"slices"

	"hamoffload/internal/simtime"
	"hamoffload/internal/topology"
	"hamoffload/internal/trace"
	"hamoffload/machine"
	"hamoffload/offload"
)

// warmupOps is the number of untimed offloads that end every set-up, as in
// the paper's measurements (§V: "10 warm-up iterations").
const warmupOps = 10

// round is one repetition of a workload on a fresh machine: set-up (timed as
// setup_s), then the timed region the end-to-end metrics describe. Workloads
// drive it through newMachine → runMain → connect → beginTimed → done/refuse
// per op → endTimed.
type round struct {
	seed   uint64
	ops    int
	tracer *trace.Tracer // armed on the traced round only
	spans  *spanLog      // driver-side wall spans, traced round only

	m *machine.Machine
	p *machine.Proc

	t0        int64 // host ns at round start
	wallStart int64
	simStart  simtime.Time
	ev0       uint64
	ms0       runtime.MemStats
	sim0      simTotals

	// What the round measured.
	attempted int
	failed    int // wrong result or unexpected error
	refused   int // admission refusals (serve-peak only; load shedding by design)
	lat       []simtime.Duration
	fp        uint64 // sim_fingerprint: every op's simulated latency and result

	simSpan    simtime.Duration
	wallNS     int64
	setupNS    int64
	newNS      int64
	connectNS  int64
	simConnect simtime.Duration
	events     uint64
	maxQueue   int
	mallocs    uint64
	allocBytes uint64
	sysBytes   uint64

	sim   simTotals          // simulated-clock span totals of the timed region (traced round)
	layer map[string]float64 // workload-specific per-layer values, by metric name
}

func newRound(seed uint64, ops int, tracer *trace.Tracer, spans *spanLog) *round {
	r := &round{seed: seed, ops: ops, tracer: tracer, spans: spans, t0: hostNow()}
	r.lat = make([]simtime.Duration, 0, ops)
	r.fp = hashSeed
	r.layer = map[string]float64{}
	return r
}

// newMachine builds the round's machine; tune may adjust the calibrated
// timing (serve-peak coarsens the VE poll interval as the PR-10 fleet does).
func (r *round) newMachine(cfg machine.Config, tune func(*topology.Timing)) error {
	timing := topology.DefaultTiming()
	timing.Tracer = r.tracer
	if tune != nil {
		tune(&timing)
	}
	cfg.Timing = &timing
	t := hostNow()
	m, err := machine.New(cfg)
	r.newNS = hostNow() - t
	r.m = m
	return err
}

func (r *round) runMain(fn func(p *machine.Proc) error) error {
	return r.m.RunMain(func(p *machine.Proc) error {
		r.p = p
		return fn(p)
	})
}

// connect opens the HAM-Offload connection over the workload's protocol.
func (r *round) connect(veo bool, opts machine.ProtocolOptions) (*offload.Runtime, error) {
	t, s := hostNow(), r.p.Now()
	var rt *offload.Runtime
	var err error
	if veo {
		rt, err = machine.ConnectVEO(r.p, r.m, opts)
	} else {
		rt, err = machine.ConnectDMA(r.p, r.m, opts)
	}
	r.connectNS = hostNow() - t
	r.simConnect = r.p.Now().Sub(s)
	return rt, err
}

// beginTimed closes set-up and opens the timed region. The collection between
// the two is on neither clock: it gives every round the same heap to start
// from, so allocation counts repeat and GC debt from set-up is not billed to
// the first ops.
func (r *round) beginTimed() {
	r.setupNS = hostNow() - r.t0
	r.spans.add("setup", "machine", r.t0, r.t0+r.setupNS, "round", -1)
	runtime.GC()
	r.sim0 = collectSim(r.tracer)
	runtime.ReadMemStats(&r.ms0)
	r.ev0 = r.m.Eng.Events()
	r.simStart = r.p.Now()
	r.wallStart = hostNow()
}

func (r *round) endTimed() {
	r.wallNS = hostNow() - r.wallStart
	r.simSpan = r.p.Now().Sub(r.simStart)
	r.events = r.m.Eng.Events() - r.ev0
	r.maxQueue = r.m.Eng.MaxQueueLen()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.mallocs = ms.Mallocs - r.ms0.Mallocs
	r.allocBytes = ms.TotalAlloc - r.ms0.TotalAlloc
	r.sysBytes = ms.Sys
	r.sim = collectSim(r.tracer).minus(r.sim0)
	r.spans.add("timed", "bench", r.wallStart, r.wallStart+r.wallNS, "round", -1)
}

// done records one completed op: its simulated latency and whether its result
// verified. Both feed the fingerprint.
func (r *round) done(lat simtime.Duration, ok bool) {
	r.attempted++
	v := uint64(1)
	if !ok {
		r.failed++
		v = 0
	}
	r.lat = append(r.lat, lat)
	r.fp = hash64(hash64(r.fp, uint64(lat)), v)
}

// refuse records an op the system declined to run (gateway admission).
func (r *round) refuse() {
	r.attempted++
	r.refused++
	r.fp = hash64(r.fp, ^uint64(0))
}

// tick reads the host clock on traced rounds only, so untraced rounds pay
// nothing for the driver-side spans.
func (r *round) tick() int64 {
	if r.spans == nil {
		return 0
	}
	return hostNow()
}

func (r *round) perOp(v float64) float64 { return v / float64(r.attempted) }

// usPerOp is a simulated-clock total spread over the round's ops, in µs.
func (r *round) usPerOp(d simtime.Duration) float64 { return r.perOp(d.Microseconds()) }

// percentile is the nearest-rank quantile of sorted at permille/1000.
func percentile(sorted []simtime.Duration, permille int) simtime.Duration {
	i := (len(sorted)*permille+999)/1000 - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func sortedDurations(v []simtime.Duration) []simtime.Duration {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}

func meanUS(v []simtime.Duration) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum simtime.Duration
	for _, d := range v {
		sum += d
	}
	return sum.Microseconds() / float64(len(v))
}

// median is the middle value (mean of the middle two) of v.
func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func errWrong(what string, i int, got, want any) error {
	return fmt.Errorf("%s: op %d returned %v, want %v", what, i, got, want)
}
