package bench

import (
	"fmt"

	"hamoffload/internal/simtime"
	"hamoffload/internal/topology"
	"hamoffload/internal/trace"
	"hamoffload/internal/veos"
	"hamoffload/machine"
	"hamoffload/offload"
)

// Fig9Config parameterises the offload-cost experiment. The paper timed 10⁶
// repetitions after 10 warm-ups; the simulation is deterministic, so far
// fewer repetitions give the same averages.
type Fig9Config struct {
	Socket int // CPU socket the VH process is pinned to (§V-A studies 1)
	Reps   int // timed repetitions (default 100)
	Warmup int // warm-up repetitions (default 10, as in the paper)
	// Tracer, when non-nil, records the full offload lifecycle of every
	// repetition (warm-ups included) as spans; nil keeps tracing off and the
	// measured times bit-identical to the untraced run.
	Tracer *trace.Tracer
}

// machineConfig assembles the machine parameters, attaching the span tracer
// to the timing model when one is requested.
func (c Fig9Config) machineConfig() machine.Config {
	mcfg := machine.Config{VEs: 1, Socket: c.Socket}
	if c.Tracer != nil {
		timing := topology.DefaultTiming()
		timing.Tracer = c.Tracer
		mcfg.Timing = &timing
	}
	return mcfg
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

	HAMVEOOverNative float64 // paper: 5.4×
	NativeOverDMA    float64 // paper: 13.1×
	HAMVEOOverDMA    float64 // paper: 70.8×
}

const veoBenchLibrary = "libbench-veo.so"

func init() {
	veos.RegisterLibrary(veoBenchLibrary, veos.Library{
		"empty": func(ctx *veos.Ctx, args []uint64) (uint64, error) { return 0, nil },
	})
}

// Fig9 measures the empty-offload cost of all three systems on fresh
// machines and returns the figure's data.
func Fig9(cfg Fig9Config) (Fig9Result, error) {
	cfg.fill()
	res := Fig9Result{Socket: cfg.Socket}

	native, err := MeasureVEONative(cfg)
	if err != nil {
		return res, fmt.Errorf("bench: native VEO: %w", err)
	}
	res.VEONativeUS = native

	hamVEO, err := MeasureHAMEmpty(cfg, false)
	if err != nil {
		return res, fmt.Errorf("bench: HAM-Offload VEO: %w", err)
	}
	res.HAMVEOUS = hamVEO

	hamDMA, err := MeasureHAMEmpty(cfg, true)
	if err != nil {
		return res, fmt.Errorf("bench: HAM-Offload DMA: %w", err)
	}
	res.HAMDMAUS = hamDMA

	res.HAMVEOOverNative = hamVEO / native
	res.NativeOverDMA = native / hamDMA
	res.HAMVEOOverDMA = hamVEO / hamDMA
	return res, nil
}

// MeasureVEONative times the paper's reference point: the low-level VEO
// function offload by symbol name, with basic argument types only. It
// returns the average cost in microseconds of simulated time.
func MeasureVEONative(cfg Fig9Config) (float64, error) {
	cfg.fill()
	m, err := machine.New(cfg.machineConfig())
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
		k, err := vp.FindSymbol(p, "empty")
		if err != nil {
			return err
		}
		ctx := vp.OpenContext(p)
		call := func() error {
			cmd := ctx.Submit(p, k, nil)
			_, err := ctx.Wait(p, cmd)
			return err
		}
		for i := 0; i < cfg.Warmup; i++ {
			if err := call(); err != nil {
				return err
			}
		}
		start := p.Now()
		for i := 0; i < cfg.Reps; i++ {
			if err := call(); err != nil {
				return err
			}
		}
		us = p.Now().Sub(start).Microseconds() / float64(cfg.Reps)
		return nil
	})
	return us, err
}

// emptyOffloads is the paper's §V-A measurement loop, written once: connect
// to m over one protocol, warm up, then time reps empty sync offloads to
// node 1, one sample per offload. The simulated clock only moves inside an
// offload, so the samples sum to the span of the whole timed loop exactly.
// after, when non-nil, reads the runtime's counters before it is finalized.
func emptyOffloads(m *machine.Machine, dma bool, opts machine.ProtocolOptions,
	warmup, reps int, after func(*offload.Runtime)) ([]simtime.Duration, error) {
	samples := make([]simtime.Duration, 0, reps)
	err := runOn(m, dma, opts, func(p *machine.Proc, rt *offload.Runtime) error {
		for i := 0; i < warmup+reps; i++ {
			start := p.Now()
			if _, err := offload.Sync(rt, 1, benchEmpty.Bind()); err != nil {
				return err
			}
			if i >= warmup {
				samples = append(samples, p.Now().Sub(start))
			}
		}
		if after != nil {
			after(rt)
		}
		return nil
	})
	return samples, err
}

// emptySamples is emptyOffloads on a fresh machine.
func emptySamples(mcfg machine.Config, dma bool, opts machine.ProtocolOptions,
	warmup, reps int) ([]simtime.Duration, error) {
	m, err := machine.New(mcfg)
	if err != nil {
		return nil, err
	}
	return emptyOffloads(m, dma, opts, warmup, reps, nil)
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

// MeasureHAMEmpty times an empty HAM-Offload sync offload over either
// protocol, in microseconds of simulated time.
func MeasureHAMEmpty(cfg Fig9Config, dmaProtocol bool) (float64, error) {
	cfg.fill()
	samples, err := emptySamples(cfg.machineConfig(), dmaProtocol, machine.ProtocolOptions{}, cfg.Warmup, cfg.Reps)
	return meanUS(samples), err
}

// MeasureHAMEmptySamples is MeasureHAMEmpty returning one latency sample per
// timed offload instead of the mean — the input of the regression baselines.
func MeasureHAMEmptySamples(cfg Fig9Config, dmaProtocol bool) ([]float64, error) {
	cfg.fill()
	samples, err := emptySamples(cfg.machineConfig(), dmaProtocol, machine.ProtocolOptions{}, cfg.Warmup, cfg.Reps)
	us := make([]float64, len(samples))
	for i, s := range samples {
		us[i] = s.Microseconds()
	}
	return us, err
}

// MeasureHAMEmptyHist is MeasureHAMEmpty with a per-offload latency
// distribution: it exposes protocol jitter such as poll-phase alignment and
// slot-drain stalls that the plain average hides. The simulation is
// deterministic, so the histogram is reproducible.
func MeasureHAMEmptyHist(cfg Fig9Config, dmaProtocol bool) (*trace.Histogram, error) {
	cfg.fill()
	name := "HAM-Offload empty offload (VEO protocol)"
	if dmaProtocol {
		name = "HAM-Offload empty offload (DMA protocol)"
	}
	hist := trace.NewHistogram(name)
	samples, err := emptySamples(cfg.machineConfig(), dmaProtocol, machine.ProtocolOptions{}, cfg.Warmup, cfg.Reps)
	for _, s := range samples {
		hist.Observe(s)
	}
	return hist, err
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
