package bench

import (
	"fmt"
	"io"

	"hamoffload/internal/simtime"
	"hamoffload/internal/topology"
	"hamoffload/internal/units"
	"hamoffload/machine"
	"hamoffload/offload"
)

// This file implements the design-space ablations called out in DESIGN.md §5.
// None of them appears as a figure in the paper, but each isolates a design
// choice the paper discusses in prose.

// AblationRow is one configuration's outcome.
type AblationRow struct {
	Config string
	Value  float64
	Unit   string
}

// variant is one row of an ablation: its label and the World it measures.
type variant struct {
	label string
	w     machine.World
}

// ablate measures every variant's World, in order, into one row each: row
// arrives labelled with the variant and unit, and measure sets its Value.
func ablate(unit string, vs []variant, measure func(w machine.World, row *AblationRow) error) ([]AblationRow, error) {
	rows := make([]AblationRow, len(vs))
	for i, v := range vs {
		rows[i] = AblationRow{Config: v.label, Unit: unit}
		if err := measure(v.w, &rows[i]); err != nil {
			return nil, fmt.Errorf("bench: %s: %w", v.label, err)
		}
	}
	return rows, nil
}

// emptyMean measures a World by its mean empty-offload cost in µs, at cfg's
// warm-ups and repetitions.
func emptyMean(cfg Fig9Config) func(machine.World, *AblationRow) error {
	cfg.fill()
	return func(w machine.World, row *AblationRow) error {
		r, err := emptyOffloads(w, cfg.Warmup, cfg.Reps)
		row.Value = meanUS(r.samples)
		return err
	}
}

// AblateHugePages compares VEO-write bandwidth at a large size with 2 MiB
// huge pages vs 4 KiB pages (§III-D: bulk bandwidth needs huge pages).
func AblateHugePages(w machine.World, size int64) ([]AblationRow, error) {
	if size <= 0 {
		size = (64 * units.MiB).Int64()
	}
	var vs []variant
	for _, page := range []struct {
		label string
		size  units.Bytes
	}{{"2MiB huge pages", 2 * units.MiB}, {"4KiB pages", 4 * units.KiB}} {
		// The page-size effect shows against the naive translator; the 4dma
		// manager was invented to hide exactly this cost.
		for _, mgr := range []string{"4dma", "naive"} {
			v := w.Tuned(func(t *topology.Timing) { t.HostPageSize = page.size })
			v.NaiveDMAManager = mgr == "naive"
			vs = append(vs, variant{fmt.Sprintf("%s, %s DMA manager", page.label, mgr), v})
		}
	}
	return ablate("GiB/s (VEO write, "+sizeLabel(size)+")", vs, func(w machine.World, row *AblationRow) error {
		series, err := Fig10(w, Fig10Config{MinSize: size, MaxSize: size, Reps: 3})
		if err != nil {
			return err
		}
		pt, _ := series[0].At(size) // VEO write, VH=>VE
		row.Value = pt.GiBps
		return nil
	})
}

// AblatePollInterval sweeps the VE runtime's receive-flag poll interval in
// the DMA protocol and reports the empty-offload cost — the latency/VE-core
// waste trade-off of DESIGN.md §5.2.
func AblatePollInterval(w machine.World, intervalsNS []int64) ([]AblationRow, error) {
	if len(intervalsNS) == 0 {
		intervalsNS = []int64{50, 150, 500, 2000, 8000}
	}
	w.DMA = true
	vs := make([]variant, len(intervalsNS))
	for i, ns := range intervalsNS {
		vs[i] = variant{fmt.Sprintf("poll every %dns", ns), w.Tuned(func(t *topology.Timing) {
			t.HAMVEPollInterval = simtime.Duration(ns) * simtime.Nanosecond
		})}
	}
	return ablate("us/offload (DMA protocol)", vs, emptyMean(Fig9Config{}))
}

// AblateResultPath compares returning small results via SHM word stores
// (the paper's choice, §V-B) against a user-DMA write.
func AblateResultPath(w machine.World) ([]AblationRow, error) {
	w.DMA = true
	viaDMA := w
	viaDMA.Options.ResultViaDMA = true
	return ablate("us/offload (DMA protocol)",
		[]variant{{"result via SHM word stores", w}, {"result via user-DMA write", viaDMA}},
		emptyMean(Fig9Config{}))
}

// AblateBufferCount varies the number of message slots and measures the
// completion time of a pipeline of asynchronous offloads — more slots allow
// deeper overlap before the host must drain a slot.
func AblateBufferCount(w machine.World, counts []int, pipelineDepth int) ([]AblationRow, error) {
	if len(counts) == 0 {
		counts = []int{1, 2, 4, 8, 16}
	}
	if pipelineDepth <= 0 {
		pipelineDepth = 32
	}
	w.DMA = true
	vs := make([]variant, len(counts))
	for i, n := range counts {
		vs[i] = variant{fmt.Sprintf("%d buffers", n), w}
		vs[i].w.Options.NumBuffers = n
	}
	// An empty kernel keeps the measurement latency-dominated: the benefit
	// of extra slots is protocol-level overlap, which long-running kernels
	// would mask behind serial VE execution time.
	return ablate(fmt.Sprintf("us/offload (pipeline of %d)", pipelineDepth), vs, func(w machine.World, row *AblationRow) error {
		_, err := w.Run(func(p *machine.Proc, _ *machine.Machine, rt *offload.Runtime) error {
			if _, err := offload.Sync(rt, 1, benchEmpty.Bind()); err != nil {
				return err
			}
			start := p.Now()
			futs := make([]*offload.Future[offload.Unit], 0, pipelineDepth)
			for i := 0; i < pipelineDepth; i++ {
				futs = append(futs, offload.Async(rt, 1, benchEmpty.Bind()))
			}
			for _, f := range futs {
				if _, err := f.Get(); err != nil {
					return err
				}
			}
			row.Value = p.Now().Sub(start).Microseconds() / float64(pipelineDepth)
			return nil
		})
		return err
	})
}

// GranularityRow is one point of the offload-granularity sweep.
type GranularityRow struct {
	KernelUS  float64 // VE kernel duration
	VEOUS     float64 // time per offloaded kernel, VEO protocol
	DMAUS     float64 // time per offloaded kernel, DMA protocol
	Speedup   float64 // VEO/DMA — the application-level gain
	Efficient bool    // offloading pays off at all (kernel > DMA overhead)
}

// AblateGranularity relates the microbenchmark numbers to application impact,
// following the paper's §V-A discussion ("how much these numbers affect
// application runtimes depends on the frequency and granularity of
// offloading"): for kernels of increasing duration, it measures the per-call
// time under both protocols. Short kernels see the full ~70× protocol gap;
// millisecond kernels amortise it away — the companion SC'14 study's 2.6×
// application speedup sits in the middle of this curve.
func AblateGranularity(w machine.World, kernelsUS []float64) ([]GranularityRow, error) {
	if len(kernelsUS) == 0 {
		kernelsUS = []float64{0, 10, 100, 1000, 10000}
	}
	// flopsFor converts a target kernel duration into a ChargeVector flop
	// count on 8 VE cores at the default efficiency.
	flopsFor := func(us float64) int64 {
		return int64(us / 1e6 * 2150.4e9 * 0.85)
	}
	kernel := offload.NewFunc1[offload.Unit]("bench.granularity_kernel",
		func(c *offload.Ctx, flops int64) (offload.Unit, error) {
			c.ChargeVector(flops, 0, 8)
			return offload.Unit{}, nil
		})

	measure := func(dma bool, flops int64) (us float64, err error) {
		w.DMA = dma
		_, err = w.Run(func(p *machine.Proc, _ *machine.Machine, rt *offload.Runtime) error {
			us, err = timedLoop(p, 5, 20, func() error {
				_, err := offload.Sync(rt, 1, kernel.Bind(flops))
				return err
			})
			return err
		})
		return us, err
	}

	var rows []GranularityRow
	for _, k := range kernelsUS {
		flops := flopsFor(k)
		veo, err := measure(false, flops)
		if err != nil {
			return nil, err
		}
		dma, err := measure(true, flops)
		if err != nil {
			return nil, err
		}
		rows = append(rows, GranularityRow{
			KernelUS:  k,
			VEOUS:     veo,
			DMAUS:     dma,
			Speedup:   veo / dma,
			Efficient: k > dma-k,
		})
	}
	return rows, nil
}

// RenderGranularity prints the sweep as a table.
func RenderGranularity(w io.Writer, rows []GranularityRow) {
	fmt.Fprintln(w, "Offload granularity vs protocol impact (per offloaded kernel)")
	fmt.Fprintf(w, "%12s %14s %14s %10s\n", "kernel [us]", "VEO proto [us]", "DMA proto [us]", "speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%12.0f %14.1f %14.1f %9.1fx\n", r.KernelUS, r.VEOUS, r.DMAUS, r.Speedup)
	}
}
