package bench

import (
	"fmt"
	"io"

	"hamoffload/machine"
	"hamoffload/offload"
)

// This file measures message batching (docs/BATCHING.md): how the one-flag,
// one-transfer batch frame amortises the DMA protocol's per-message cost as
// the batch size grows, against the Fig. 9 single-message baseline.

// BatchConfig parameterises the batch-amortisation experiment.
type BatchConfig struct {
	Socket int   // CPU socket the VH process is pinned to
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
}

// BatchResult is the full sweep plus its single-message baseline.
type BatchResult struct {
	Socket   int
	SingleUS float64 // Fig. 9 HAM-DMA single sync offload
	Points   []BatchPoint
}

// Batch runs the batch-amortisation sweep over the DMA protocol on fresh
// machines and returns the per-size amortised costs.
func Batch(cfg BatchConfig) (BatchResult, error) {
	cfg.fill()
	res := BatchResult{Socket: cfg.Socket}

	single, err := MeasureHAMEmpty(Fig9Config{Socket: cfg.Socket, Reps: cfg.Reps, Warmup: cfg.Warmup}, true)
	if err != nil {
		return res, fmt.Errorf("bench: single-message baseline: %w", err)
	}
	res.SingleUS = single

	for _, k := range cfg.Sizes {
		us, err := MeasureBatchEmpty(cfg, k)
		if err != nil {
			return res, fmt.Errorf("bench: batch of %d: %w", k, err)
		}
		res.Points = append(res.Points, BatchPoint{
			BatchSize: k,
			BatchUS:   us * float64(k),
			PerMsgUS:  us,
			Speedup:   single / us,
		})
	}
	return res, nil
}

// MeasureBatchEmpty times batches of k empty offloads shipped as one batch
// frame over the DMA protocol and returns the amortised per-message cost in
// microseconds of simulated time.
func MeasureBatchEmpty(cfg BatchConfig, k int) (float64, error) {
	cfg.fill()
	if k < 1 {
		return 0, fmt.Errorf("bench: batch size must be >= 1, got %d", k)
	}
	samples, err := MeasureBatchEmptySamples(cfg, k)
	if err != nil {
		return 0, err
	}
	var sum float64
	for _, s := range samples {
		sum += s
	}
	return sum / float64(len(samples)), nil
}

// MeasureBatchEmptySamples is MeasureBatchEmpty returning one amortised
// per-message sample per timed batch instead of the mean.
func MeasureBatchEmptySamples(cfg BatchConfig, k int) ([]float64, error) {
	cfg.fill()
	var samples []float64
	mcfg := machine.Config{VEs: 1, Socket: cfg.Socket}
	opts := machine.ProtocolOptions{Batch: offload.BatchPolicy{MaxMessages: k}}
	err := withRuntime(mcfg, true, opts, func(p *machine.Proc, rt *offload.Runtime) error {
		fns := make([]offload.Functor[offload.Unit], k)
		for i := range fns {
			fns[i] = benchEmpty.Bind()
		}
		batch := func() error {
			_, err := offload.GetAll(offload.AsyncBatch(rt, 1, fns))
			return err
		}
		for i := 0; i < cfg.Warmup; i++ {
			if err := batch(); err != nil {
				return err
			}
		}
		for i := 0; i < cfg.Reps; i++ {
			start := p.Now()
			if err := batch(); err != nil {
				return err
			}
			samples = append(samples, p.Now().Sub(start).Microseconds()/float64(k))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return samples, nil
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
