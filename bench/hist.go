package bench

import (
	"hamoffload/internal/trace"
	"hamoffload/machine"
	"hamoffload/offload"
)

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
	mcfg := machine.Config{VEs: 1, Socket: cfg.Socket}
	err := withRuntime(mcfg, dmaProtocol, machine.ProtocolOptions{}, func(p *machine.Proc, rt *offload.Runtime) error {
		for i := 0; i < cfg.Warmup; i++ {
			if _, err := offload.Sync(rt, 1, benchEmpty.Bind()); err != nil {
				return err
			}
		}
		for i := 0; i < cfg.Reps; i++ {
			start := p.Now()
			if _, err := offload.Sync(rt, 1, benchEmpty.Bind()); err != nil {
				return err
			}
			hist.Observe(p.Now().Sub(start))
		}
		return nil
	})
	return hist, err
}
