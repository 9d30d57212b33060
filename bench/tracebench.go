package bench

import (
	"io"

	"hamoffload/internal/topology"
	"hamoffload/internal/trace"
	"hamoffload/machine"
	"hamoffload/offload"
)

// TraceOffloads runs a handful of empty offloads over both protocols with
// the component-level recorder attached and writes a Chrome trace-event JSON
// to w. Loading it in chrome://tracing or Perfetto shows the structural
// difference between the two protocols at a glance: the VEO protocol's
// offload is dominated by two veo_write_mem spans and a long veo_read_mem
// poll, while the DMA protocol shows only thin user-DMA slivers on the VE
// worker's row.
func TraceOffloads(reps int, w io.Writer) error {
	if reps <= 0 {
		reps = 5
	}
	rec := trace.NewTracer()
	timing := topology.DefaultTiming()
	timing.Tracer = rec
	for _, dma := range []bool{false, true} {
		mcfg := machine.Config{VEs: 1, Timing: &timing}
		err := withRuntime(mcfg, dma, machine.ProtocolOptions{}, func(_ *machine.Proc, rt *offload.Runtime) error {
			for i := 0; i < reps; i++ {
				if _, err := offload.Sync(rt, 1, benchEmpty.Bind()); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return rec.ExportChrome(w)
}
