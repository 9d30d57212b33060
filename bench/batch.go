package bench

import (
	"fmt"
	"io"

	"hamoffload/internal/simtime"
	"hamoffload/machine"
	"hamoffload/offload"
)

// This file measures message batching (docs/BATCHING.md): how the one-flag,
// one-transfer batch frame amortises the DMA protocol's per-message cost as
// the batch size grows, against the Fig. 9 single-message baseline.

// BatchConfig parameterises the batch-amortisation experiment.
type BatchConfig struct {
	Reps   int   // timed batches per size (default 50)
	Warmup int   // warm-up batches per size (default 5)
	Sizes  []int // batch sizes to sweep (default 1,2,4,8,16,32)
}

func (c *BatchConfig) fill() {
	if c.Reps <= 0 {
		c.Reps = 50
	}
	if c.Warmup <= 0 {
		c.Warmup = 5
	}
	if len(c.Sizes) == 0 {
		c.Sizes = []int{1, 2, 4, 8, 16, 32}
	}
}

// BatchPoint is one batch size's outcome.
type BatchPoint struct {
	BatchSize int
	BatchUS   float64 // whole-batch round trip, µs of simulated time
	PerMsgUS  float64 // BatchUS / BatchSize — the amortised per-message cost
	Speedup   float64 // single-message DMA cost / PerMsgUS
	// Samples is the amortised per-message cost of each timed batch, in µs.
	Samples []float64
}

// BatchResult is the full sweep plus its single-message baseline.
type BatchResult struct {
	Socket   int
	SingleUS float64            // Fig. 9 HAM-DMA single sync offload
	Single   []simtime.Duration // the baseline's samples, one per offload
	Points   []BatchPoint
}

// Batch runs the batch-amortisation sweep over the DMA protocol on fresh
// machines of w and returns the per-size amortised costs.
func Batch(w machine.World, cfg BatchConfig) (BatchResult, error) {
	cfg.fill()
	w.DMA = true
	res := BatchResult{Socket: w.Socket}

	single, err := emptyOffloads(w, cfg.Warmup, cfg.Reps)
	if err != nil {
		return res, fmt.Errorf("bench: single-message baseline: %w", err)
	}
	res.Single, res.SingleUS = single.samples, meanUS(single.samples)

	for _, k := range cfg.Sizes {
		pt := BatchPoint{BatchSize: k}
		w.Options.Batch = offload.BatchPolicy{MaxMessages: k}
		_, err := w.Run(func(p *machine.Proc, _ *machine.Machine, rt *offload.Runtime) error {
			fns := make([]offload.Functor[offload.Unit], k)
			for i := range fns {
				fns[i] = benchEmpty.Bind()
			}
			for i := 0; i < cfg.Warmup+cfg.Reps; i++ {
				start := p.Now()
				if _, err := offload.GetAll(offload.AsyncBatch(rt, 1, fns)); err != nil {
					return err
				}
				if i >= cfg.Warmup {
					pt.Samples = append(pt.Samples, p.Now().Sub(start).Microseconds()/float64(k))
				}
			}
			return nil
		})
		if err != nil {
			return res, fmt.Errorf("bench: batch of %d: %w", k, err)
		}
		var sum float64
		for _, s := range pt.Samples {
			sum += s
		}
		pt.PerMsgUS = sum / float64(len(pt.Samples))
		pt.BatchUS, pt.Speedup = pt.PerMsgUS*float64(k), res.SingleUS/pt.PerMsgUS
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// BatchReport reduces the sweep's samples to a regression report: the
// "single-dma" baseline plus one "batch-<k>-per-msg" entry per size.
func BatchReport(w machine.World, cfg BatchConfig) (Report, error) {
	res, err := Batch(w, cfg)
	r := Report{Experiment: "batch", Entries: []ReportEntry{
		{Name: "single-dma", Stats: NewStats(microseconds(res.Single))},
	}}
	for _, pt := range res.Points {
		r.Entries = append(r.Entries, ReportEntry{
			Name:  fmt.Sprintf("batch-%d-per-msg", pt.BatchSize),
			Stats: NewStats(pt.Samples),
		})
	}
	return r, err
}

// RenderBatch prints the sweep as a fixed-width table.
func RenderBatch(w io.Writer, r BatchResult) {
	fmt.Fprintf(w, "Batch amortisation — empty offloads, DMA protocol (socket %d)\n", r.Socket)
	fmt.Fprintf(w, "single sync offload: %8.2f us  (Fig. 9 HAM-DMA baseline)\n", r.SingleUS)
	fmt.Fprintf(w, "%8s  %12s  %12s  %8s\n", "batch", "batch us", "per-msg us", "speedup")
	for _, pt := range r.Points {
		fmt.Fprintf(w, "%8d  %12.2f  %12.2f  %7.2fx\n",
			pt.BatchSize, pt.BatchUS, pt.PerMsgUS, pt.Speedup)
	}
}
