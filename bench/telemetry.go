package bench

import (
	"fmt"
	"io"

	"hamoffload/internal/faults"
	"hamoffload/internal/simtime"
	"hamoffload/internal/trace"
	"hamoffload/machine"
	"hamoffload/offload"
	"hamoffload/sched"
)

// The continuous-telemetry experiment exercises the series, SLO and flow
// instruments of internal/trace on one deterministic workload: waves of
// scheduled offloads over several VEs, batched four to a frame, with seeded
// user-DMA faults so the retry path shows up in the series and the causal
// flows. Everything the experiment prints through RenderTelemetry is
// simulated time, so two runs produce byte-identical output.

// TelemetryConfig parameterises the telemetry experiment's workload.
type TelemetryConfig struct {
	Tasks int // tasks per wave (default 24)
	Waves int // waves separated by idle gaps (default 3)
}

func (c *TelemetryConfig) fill() {
	if c.Tasks <= 0 {
		c.Tasks = 24
	}
	if c.Waves <= 0 {
		c.Waves = 3
	}
}

// TelemetryResult is one run of the experiment.
type TelemetryResult struct {
	VEs, Tasks, Waves int
	Tracer            *trace.Tracer
	Retries           int64

	// The DES engine's footprint on the run, all simulated: wake events
	// processed, yields, the clock at completion, the queue high-water mark.
	Events      uint64
	Yields      uint64
	FinalTime   simtime.Time
	MaxQueueLen int
}

// telemetryWork is the experiment's kernel: a roofline-charged vector loop
// whose size varies per task, so offload latencies spread across the SLO
// histogram buckets instead of collapsing onto one value.
var telemetryWork = offload.NewFunc1[offload.Unit]("bench.telemetry_work",
	func(c *offload.Ctx, n int64) (offload.Unit, error) {
		c.ChargeVector(n*200_000, n*25_000, 8)
		return offload.Unit{}, nil
	})

// telemetryPlan seeds payload bit flips so the armed retry policy produces
// nonzero retry telemetry. The flips are detected by the fault-tolerance
// checksum and re-sent; with a fixed seed the whole cascade is
// deterministic. (Op-scheduled DMA errors would miss: the small batch
// frames of this workload never touch the bulk user-DMA engine.)
func telemetryPlan() *faults.Plan {
	return &faults.Plan{Seed: 0x7E1E, Rules: []faults.Rule{
		{Kind: faults.BitFlip, Node: faults.AnyNode, Rate: 0.05},
	}}
}

// Telemetry runs the workload over the DMA protocol on a machine of w (4 VEs
// unless w says otherwise) with every instrument armed (flows included) and
// returns the tracer plus the engine footprint of the run.
func Telemetry(w machine.World, cfg TelemetryConfig) (TelemetryResult, error) {
	cfg.fill()
	if w.VEs == 0 {
		w.VEs = 4
	}
	res := TelemetryResult{VEs: w.VEs, Tasks: cfg.Tasks, Waves: cfg.Waves}
	res.Tracer = trace.New(trace.Config{
		Interval:  5 * simtime.Microsecond,
		SLOTarget: 60 * simtime.Microsecond,
		SLOWindow: 250 * simtime.Microsecond,
		Flows:     true,
	})
	w = traced(w, res.Tracer)
	w.DMA, w.Faults = true, telemetryPlan()
	w.Options = machine.ProtocolOptions{
		Batch: offload.BatchPolicy{MaxMessages: 4},
		Retry: offload.FaultTolerance{
			MaxRetries:  3,
			BackoffBase: 2 * machine.Microsecond,
			BackoffMax:  16 * machine.Microsecond,
		},
	}
	m, err := w.Run(func(p *machine.Proc, _ *machine.Machine, rt *offload.Runtime) error {
		nodes := make([]offload.NodeID, w.VEs)
		for i := range nodes {
			nodes[i] = offload.NodeID(i + 1)
		}
		s, serr := sched.New(rt, nodes, sched.LeastInFlight())
		if serr != nil {
			return serr
		}
		for w := 0; w < cfg.Waves; w++ {
			if w > 0 {
				// Idle gap between waves, so the series show bursts.
				p.Sleep(60 * machine.Microsecond)
			}
			wave := w
			err := sched.ForEach(s, cfg.Tasks, func(task int) offload.Functor[offload.Unit] {
				return telemetryWork.Bind(int64(1 + (task+wave)%5))
			})
			if err != nil {
				return err
			}
		}
		res.Retries = rt.Retries()
		return nil
	})
	if err != nil {
		return res, err
	}
	res.Events, res.Yields, res.FinalTime, res.MaxQueueLen = m.Eng.Events(), m.Eng.Yields(), m.Eng.Now(), m.Eng.MaxQueueLen()
	return res, nil
}

// RenderTelemetry prints the experiment's deterministic artefacts: the
// sparkline timelines, the SLO table, the causal-flow summary, and the
// engine footprint.
func RenderTelemetry(w io.Writer, r TelemetryResult) {
	fmt.Fprintf(w, "Continuous telemetry — DMA protocol, %d VEs, %d waves x %d tasks (batch 4, retries armed)\n\n",
		r.VEs, r.Waves, r.Tasks)
	r.Tracer.Render(w)
	fmt.Fprintf(w, "runtime retries observed: %d\n", r.Retries)
	fmt.Fprintf(w, "engine (deterministic): %d events, %d yields to t=%v, max queue depth %d\n",
		r.Events, r.Yields, r.FinalTime, r.MaxQueueLen)
}

// EngineReport is the DES engine's own footprint on the telemetry workload:
// how many events the run schedules and how many switch processes, when it
// ends and how deep the event queue gets. Every field is simulated, so BENCH_engine.json is compared
// exactly; how fast the engine turns events over on the wall clock is
// bench/perf's to bound (BENCHMARK.json), not this file's.
type EngineReport struct {
	Experiment    string  `json:"experiment"` // always "engine"
	Offloads      int     `json:"offloads"`
	VEs           int     `json:"ves"`
	Events        uint64  `json:"events"`
	Yields        uint64  `json:"yields"`
	SimTimeUS     float64 `json:"sim_time_us"`
	MaxQueueDepth int     `json:"max_queue_depth"`
}

// EngineProfileReport runs the telemetry workload on w and reduces its
// engine footprint to a regression report.
func EngineProfileReport(w machine.World, cfg TelemetryConfig) (EngineReport, error) {
	res, err := Telemetry(w, cfg)
	return EngineReport{
		Experiment:    "engine",
		Offloads:      res.Waves * res.Tasks,
		VEs:           res.VEs,
		Events:        res.Events,
		Yields:        res.Yields,
		SimTimeUS:     res.FinalTime.Microseconds(),
		MaxQueueDepth: res.MaxQueueLen,
	}, err
}
