// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (§V) from the simulated machine:
//
//	Fig. 9   — function offload cost, VH to local VE (three systems)
//	Fig. 10  — data-transfer bandwidth vs size, four panels
//	§V       — every number the evaluation reports (Fig. 9, the socket-1
//	           penalty, Table IV, knees, crossovers) against its band (Anchors)
//	plus the ablations called out in DESIGN.md (huge pages, 4dma bulk
//	translation, poll interval, buffer count, result-return path).
//
// Experiments (experiments.go) is the one table of them: cmd/hambench,
// cmd/benchreg and `make samples` are loops over it. The same entry points
// back the testing.B benchmarks in the repository root, so the printed
// artefacts and the benchmark metrics always agree.
//
// Every experiment runs on a machine.World derived from the one its caller
// hands in (hambench's comes from -socket and -trace): an experiment sets
// only the axes it studies, and an ablation is a list of Worlds.
package bench

import (
	"fmt"

	"hamoffload/internal/topology"
	"hamoffload/internal/trace"
	"hamoffload/internal/units"
	"hamoffload/machine"
	"hamoffload/offload"
)

// traced is w recording into tr; a nil tr leaves w as it is.
func traced(w machine.World, tr *trace.Tracer) machine.World {
	if tr == nil {
		return w
	}
	return w.Tuned(func(t *topology.Timing) { t.Tracer = tr })
}

// Point is one measurement of a size sweep.
type Point struct {
	Size  int64   // transfer size in bytes
	GiBps float64 // achieved bandwidth
	US    float64 // time per operation in microseconds
}

// Series is one curve of Fig. 10.
type Series struct {
	Method    string // "VEO Read/Write", "VE User DMA", "VE SHM/LHM"
	Direction string // "VH=>VE" or "VE=>VH"
	Points    []Point
}

// Max returns the series' peak bandwidth.
func (s Series) Max() Point {
	var best Point
	for _, p := range s.Points {
		if p.GiBps > best.GiBps {
			best = p
		}
	}
	return best
}

// Knee returns the smallest swept size at which the series reaches 90 % of
// its peak bandwidth: where §V-B calls a method close to its peak.
func (s Series) Knee() int64 {
	peak := s.Max().GiBps
	for _, p := range s.Points {
		if p.GiBps >= 0.9*peak {
			return p.Size
		}
	}
	return 0
}

// At returns the point for an exact size.
func (s Series) At(size int64) (Point, bool) {
	for _, p := range s.Points {
		if p.Size == size {
			return p, true
		}
	}
	return Point{}, false
}

// sizeLabel formats a byte size like the paper's axes.
func sizeLabel(n int64) string { return units.Bytes(n).String() }

// benchEmpty is the empty kernel every offload-cost measurement uses — "the
// minimal cost that occurs with every offload" (§V-A).
var benchEmpty = offload.NewFunc0[offload.Unit]("bench.empty",
	func(c *offload.Ctx) (offload.Unit, error) { return offload.Unit{}, nil })

// gibps converts (bytes, microseconds) to GiB/s.
func gibps(bytes int64, us float64) float64 {
	if us <= 0 {
		return 0
	}
	return float64(bytes) / float64(units.GiB) / (us / 1e6)
}

func fmtGiBps(v float64) string {
	switch {
	case v >= 1:
		return fmt.Sprintf("%.1f", v)
	case v >= 0.01:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}
