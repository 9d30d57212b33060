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

// AblateHugePages compares VEO-write bandwidth at a large size with 2 MiB
// huge pages vs 4 KiB pages (§III-D: bulk bandwidth needs huge pages).
func AblateHugePages(size int64) ([]AblationRow, error) {
	if size <= 0 {
		size = (64 * units.MiB).Int64()
	}
	var rows []AblationRow
	for _, huge := range []bool{true, false} {
		huge := huge
		label := "2MiB huge pages"
		if !huge {
			label = "4KiB pages"
		}
		// The page-size effect shows against the naive translator; the 4dma
		// manager was invented to hide exactly this cost.
		for _, naive := range []bool{false, true} {
			mgr := "4dma"
			if naive {
				mgr = "naive"
			}
			cfg := Fig10Config{
				MinSize: size, MaxSize: size,
				HugePages:       &huge,
				NaiveDMAManager: naive,
				Reps:            3,
			}
			series, err := Fig10(cfg)
			if err != nil {
				return nil, err
			}
			pt, _ := series[0].At(size) // VEO write, VH=>VE
			rows = append(rows, AblationRow{
				Config: fmt.Sprintf("%s, %s DMA manager", label, mgr),
				Value:  pt.GiBps,
				Unit:   "GiB/s (VEO write, " + sizeLabel(size) + ")",
			})
		}
	}
	return rows, nil
}

// AblatePollInterval sweeps the VE runtime's receive-flag poll interval in
// the DMA protocol and reports the empty-offload cost — the latency/VE-core
// waste trade-off of DESIGN.md §5.2.
func AblatePollInterval(intervalsNS []int64) ([]AblationRow, error) {
	if len(intervalsNS) == 0 {
		intervalsNS = []int64{50, 150, 500, 2000, 8000}
	}
	var rows []AblationRow
	for _, ns := range intervalsNS {
		timing := topology.DefaultTiming()
		timing.HAMVEPollInterval = simtime.Duration(ns) * simtime.Nanosecond
		us, err := runEmptyLoop(machine.Config{VEs: 1, Timing: &timing}, machine.ProtocolOptions{})
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Config: fmt.Sprintf("poll every %dns", ns),
			Value:  us,
			Unit:   "us/offload (DMA protocol)",
		})
	}
	return rows, nil
}

// AblateResultPath compares returning small results via SHM word stores
// (the paper's choice, §V-B) against a user-DMA write.
func AblateResultPath() ([]AblationRow, error) {
	var rows []AblationRow
	for _, viaDMA := range []bool{false, true} {
		label := "SHM word stores"
		if viaDMA {
			label = "user-DMA write"
		}
		us, err := runEmptyLoop(machine.Config{VEs: 1}, machine.ProtocolOptions{ResultViaDMA: viaDMA})
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Config: "result via " + label,
			Value:  us,
			Unit:   "us/offload (DMA protocol)",
		})
	}
	return rows, nil
}

// AblateBufferCount varies the number of message slots and measures the
// completion time of a pipeline of asynchronous offloads — more slots allow
// deeper overlap before the host must drain a slot.
func AblateBufferCount(counts []int, pipelineDepth int) ([]AblationRow, error) {
	if len(counts) == 0 {
		counts = []int{1, 2, 4, 8, 16}
	}
	if pipelineDepth <= 0 {
		pipelineDepth = 32
	}
	// An empty kernel keeps the measurement latency-dominated: the benefit
	// of extra slots is protocol-level overlap, which long-running kernels
	// would mask behind serial VE execution time.
	var rows []AblationRow
	for _, n := range counts {
		var us float64
		opts := machine.ProtocolOptions{NumBuffers: n}
		err := withRuntime(machine.Config{VEs: 1}, true, opts, func(p *machine.Proc, rt *offload.Runtime) error {
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
			us = p.Now().Sub(start).Microseconds() / float64(pipelineDepth)
			return nil
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Config: fmt.Sprintf("%d buffers", n),
			Value:  us,
			Unit:   fmt.Sprintf("us/offload (pipeline of %d)", pipelineDepth),
		})
	}
	return rows, nil
}

// runEmptyLoop is the DMA-protocol empty-offload cost under one machine and
// protocol configuration, at Fig. 9's default warm-ups and repetitions.
func runEmptyLoop(mcfg machine.Config, opts machine.ProtocolOptions) (float64, error) {
	samples, err := emptySamples(mcfg, true, opts, 10, 100)
	return meanUS(samples), err
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
func AblateGranularity(kernelsUS []float64) ([]GranularityRow, error) {
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

	measure := func(dma bool, flops int64) (float64, error) {
		var us float64
		err := withRuntime(machine.Config{VEs: 1}, dma, machine.ProtocolOptions{}, func(p *machine.Proc, rt *offload.Runtime) error {
			op := func() error {
				_, err := offload.Sync(rt, 1, kernel.Bind(flops))
				return err
			}
			v, err := timedLoop(p, 5, 20, op)
			us = v
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
