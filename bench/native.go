package bench

import (
	"fmt"
	"io"

	"hamoffload/internal/vecore"
	"hamoffload/machine"
	"hamoffload/offload"
)

// This file quantifies the paper's §I framing: "Whether native execution or
// offloading is the right match in practise depends on the application at
// hand, specifically the amount of scalar code, I/O, and the existing
// structure of the code." A synthetic application alternates vectorisable
// phases with scalar phases and runs in two modes:
//
//   - native: everything on the VE — vector phases fly, scalar phases crawl
//     on the 1.4 GHz scalar pipeline (and I/O reverse-offloads to the VH);
//   - offload: scalar phases run on the fast host, vector phases are
//     offloaded over the DMA protocol, paying the per-offload cost.
//
// Sweeping the scalar fraction locates the crossover that §I argues about.

// NativeVsOffloadRow is one point of the scalar-fraction sweep.
type NativeVsOffloadRow struct {
	ScalarFraction float64
	NativeUS       float64
	OffloadUS      float64
	OffloadWins    bool
}

// NativeVsOffloadConfig parameterises the sweep.
type NativeVsOffloadConfig struct {
	// Phases is the number of alternating vector/scalar phase pairs
	// (default 20) — each vector phase is one offload in offload mode.
	Phases int
	// WorkOps is the total operation count split between vector and scalar
	// phases (default 20e6).
	WorkOps int64
	// Fractions are the scalar-work fractions to sweep (default 0..0.5).
	Fractions []float64
}

func (c *NativeVsOffloadConfig) fill() {
	if c.Phases <= 0 {
		c.Phases = 20
	}
	if c.WorkOps <= 0 {
		c.WorkOps = 20_000_000
	}
	if len(c.Fractions) == 0 {
		c.Fractions = []float64{0, 0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5}
	}
}

var nvoVector = offload.NewFunc1[offload.Unit]("bench.nvo_vector",
	func(c *offload.Ctx, flops int64) (offload.Unit, error) {
		c.ChargeVector(flops, 0, 8)
		return offload.Unit{}, nil
	})

// NativeVsOffload runs the sweep, offloading over the DMA protocol to
// machines of w, and returns one row per scalar fraction.
func NativeVsOffload(w machine.World, cfg NativeVsOffloadConfig) ([]NativeVsOffloadRow, error) {
	cfg.fill()
	w.DMA = true
	ve := vecore.DefaultModel()
	host := vecore.DefaultHostModel()

	var rows []NativeVsOffloadRow
	for _, f := range cfg.Fractions {
		scalarOps := int64(f * float64(cfg.WorkOps))
		vectorOps := cfg.WorkOps - scalarOps
		perPhaseVector := vectorOps / int64(cfg.Phases)
		perPhaseScalar := scalarOps / int64(cfg.Phases)

		// Native mode: pure cost-model arithmetic — every phase on the VE,
		// no transfers at all.
		native := float64(0)
		for i := 0; i < cfg.Phases; i++ {
			native += ve.VectorTime(perPhaseVector, 0, 8).Microseconds()
			native += ve.ScalarTime(perPhaseScalar).Microseconds()
		}

		// Offload mode: scalar on the host (measured through the host
		// model), vector phases offloaded over the DMA protocol on a real
		// simulated machine, so the protocol cost is the measured one.
		var offloadUS float64
		_, err := w.Run(func(p *machine.Proc, _ *machine.Machine, rt *offload.Runtime) error {
			// Warm the protocol path.
			if _, err := offload.Sync(rt, 1, nvoVector.Bind(0)); err != nil {
				return err
			}
			start := p.Now()
			for i := 0; i < cfg.Phases; i++ {
				if _, err := offload.Sync(rt, 1, nvoVector.Bind(perPhaseVector)); err != nil {
					return err
				}
				// Scalar phase on the host: a serial region, one core.
				p.Sleep(host.VectorTime(perPhaseScalar, 0, 1))
			}
			offloadUS = p.Now().Sub(start).Microseconds()
			return nil
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, NativeVsOffloadRow{
			ScalarFraction: f,
			NativeUS:       native,
			OffloadUS:      offloadUS,
			OffloadWins:    offloadUS < native,
		})
	}
	return rows, nil
}

// RenderNativeVsOffload prints the sweep.
func RenderNativeVsOffload(w io.Writer, rows []NativeVsOffloadRow) {
	fmt.Fprintln(w, "Native VE execution vs offloading (paper §I), by scalar-work fraction")
	fmt.Fprintf(w, "%14s %14s %14s %10s\n", "scalar frac", "native [us]", "offload [us]", "winner")
	for _, r := range rows {
		winner := "native"
		if r.OffloadWins {
			winner = "offload"
		}
		fmt.Fprintf(w, "%14.3f %14.1f %14.1f %10s\n",
			r.ScalarFraction, r.NativeUS, r.OffloadUS, winner)
	}
}
