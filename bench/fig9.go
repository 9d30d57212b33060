package bench

import (
	"fmt"

	"hamoffload/internal/simtime"
	"hamoffload/internal/trace"
	"hamoffload/internal/veos"
	"hamoffload/machine"
	"hamoffload/offload"
)

// Fig9Config parameterises the offload-cost measurement. The paper timed 10⁶
// repetitions after 10 warm-ups; the simulation is deterministic, so far
// fewer repetitions give the same averages.
type Fig9Config struct {
	Reps   int // timed repetitions (default 100)
	Warmup int // warm-up repetitions (default 10, as in the paper)
}

func (c *Fig9Config) fill() {
	if c.Reps <= 0 {
		c.Reps = 100
	}
	if c.Warmup <= 0 {
		c.Warmup = 10
	}
}

// Fig9Result holds the three bars of Fig. 9 plus the derived ratios the
// paper quotes in the text.
type Fig9Result struct {
	Socket int

	VEONativeUS float64 // native veo_call_async + wait, empty kernel
	HAMVEOUS    float64 // HAM-Offload over the VEO protocol
	HAMDMAUS    float64 // HAM-Offload over the DMA protocol

	HAMVEOOverNative float64
	NativeOverDMA    float64
	HAMVEOOverDMA    float64

	// HAMVEO and HAMDMA are the samples the two HAM-Offload bars average,
	// one per timed offload.
	HAMVEO, HAMDMA []simtime.Duration
}

const veoBenchLibrary = "libbench-veo.so"

func init() {
	veos.RegisterLibrary(veoBenchLibrary, veos.Library{
		"empty": func(ctx *veos.Ctx, args []uint64) (uint64, error) { return 0, nil },
	})
}

// Fig9 measures the empty-offload cost of all three systems on fresh
// machines of w and returns the figure's data. A tracer on w's timing records
// every repetition, warm-ups included; spans never move the simulated clock,
// so the bars are those of the untraced run.
func Fig9(w machine.World, cfg Fig9Config) (Fig9Result, error) {
	cfg.fill()
	res := Fig9Result{Socket: w.Socket}

	native, err := veoNative(w, cfg)
	if err != nil {
		return res, fmt.Errorf("bench: native VEO: %w", err)
	}
	w.DMA = false
	veo, err := emptyOffloads(w, cfg.Warmup, cfg.Reps)
	if err != nil {
		return res, fmt.Errorf("bench: HAM-Offload VEO: %w", err)
	}
	w.DMA = true
	dma, err := emptyOffloads(w, cfg.Warmup, cfg.Reps)
	if err != nil {
		return res, fmt.Errorf("bench: HAM-Offload DMA: %w", err)
	}

	res.VEONativeUS, res.HAMVEO, res.HAMDMA = native, veo.samples, dma.samples
	res.HAMVEOUS, res.HAMDMAUS = meanUS(veo.samples), meanUS(dma.samples)
	res.HAMVEOOverNative = res.HAMVEOUS / native
	res.NativeOverDMA = native / res.HAMDMAUS
	res.HAMVEOOverDMA = res.HAMVEOUS / res.HAMDMAUS
	return res, nil
}

// Hists are the per-offload latency distributions of the two HAM-Offload
// bars (VEO, then DMA): they expose protocol jitter such as poll-phase
// alignment and slot-drain stalls that the plain average hides.
func (r Fig9Result) Hists() []*trace.Histogram {
	out := []*trace.Histogram{
		trace.NewHistogram("HAM-Offload empty offload (VEO protocol)"),
		trace.NewHistogram("HAM-Offload empty offload (DMA protocol)"),
	}
	for i, samples := range [][]simtime.Duration{r.HAMVEO, r.HAMDMA} {
		for _, s := range samples {
			out[i].Observe(s)
		}
	}
	return out
}

// Fig9Report reduces the two HAM-Offload bars' samples to a regression
// report.
func Fig9Report(w machine.World, cfg Fig9Config) (Report, error) {
	res, err := Fig9(w, cfg)
	return Report{Experiment: "fig9", Entries: []ReportEntry{
		{Name: "ham-veo-empty", Stats: NewStats(microseconds(res.HAMVEO))},
		{Name: "ham-dma-empty", Stats: NewStats(microseconds(res.HAMDMA))},
	}}, err
}

// veoNative times the paper's reference point on a machine of w: the
// low-level VEO function offload by symbol name, with basic argument types
// only. It needs no HAM-Offload runtime. It returns the average cost in
// microseconds of simulated time.
func veoNative(w machine.World, cfg Fig9Config) (float64, error) {
	m, err := machine.New(w.Config)
	if err != nil {
		return 0, err
	}
	var us float64
	err = m.RunMain(func(p *machine.Proc) error {
		card := m.Cards[0]
		vp, err := card.CreateProcess(p)
		if err != nil {
			return err
		}
		if err := vp.LoadLibrary(p, veoBenchLibrary); err != nil {
			return err
		}
		k, err := vp.FindSymbol(p, veoBenchLibrary, "empty")
		if err != nil {
			return err
		}
		ctx := vp.OpenContext(p)
		us, err = timedLoop(p, cfg.Warmup, cfg.Reps, func() error {
			_, err := ctx.Wait(p, ctx.Submit(p, k, nil))
			return err
		})
		return err
	})
	return us, err
}

// emptyRun is one emptyOffloads loop: a latency sample per timed offload,
// the runtime's retry count, and the machine as Finalize left it.
type emptyRun struct {
	samples []simtime.Duration
	retries int64
	m       *machine.Machine
}

// emptyOffloads is the paper's §V-A measurement loop, written once: on a
// fresh machine of w, warm up, then time reps empty sync offloads to node 1,
// one sample per offload. The simulated clock only moves inside an offload,
// so the samples sum to the span of the whole timed loop exactly.
func emptyOffloads(w machine.World, warmup, reps int) (emptyRun, error) {
	r := emptyRun{samples: make([]simtime.Duration, 0, reps)}
	var err error
	r.m, err = w.Run(func(p *machine.Proc, _ *machine.Machine, rt *offload.Runtime) error {
		for i := 0; i < warmup+reps; i++ {
			start := p.Now()
			if _, err := offload.Sync(rt, 1, benchEmpty.Bind()); err != nil {
				return err
			}
			if i >= warmup {
				r.samples = append(r.samples, p.Now().Sub(start))
			}
		}
		r.retries = rt.Retries() // before Finalize's own messages
		return nil
	})
	return r, err
}

// meanUS averages integer-picosecond samples in microseconds: the sum is
// exact, so the mean equals (end - start) / reps of the loop they tile.
func meanUS(samples []simtime.Duration) float64 {
	var sum simtime.Duration
	for _, s := range samples {
		sum += s
	}
	return sum.Microseconds() / float64(len(samples))
}

// microseconds converts samples for NewStats.
func microseconds(samples []simtime.Duration) []float64 {
	us := make([]float64, len(samples))
	for i, s := range samples {
		us[i] = s.Microseconds()
	}
	return us
}

// timedLoop is a helper for size sweeps: warm-ups then timed reps of op.
func timedLoop(p *simtime.Proc, warmup, reps int, op func() error) (float64, error) {
	for i := 0; i < warmup; i++ {
		if err := op(); err != nil {
			return 0, err
		}
	}
	start := p.Now()
	for i := 0; i < reps; i++ {
		if err := op(); err != nil {
			return 0, err
		}
	}
	return p.Now().Sub(start).Microseconds() / float64(reps), nil
}
