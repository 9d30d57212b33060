package veos

import (
	"testing"

	"hamoffload/internal/simtime"
)

// Test hooks for the external veos_test package, which holds the card to
// the paper's bands in bench.Anchors (this package cannot import bench
// without a cycle).

// EmptyCallUS returns the average cost in microseconds of a native VEO
// offload of an empty kernel: warm-up, then many timed submit+wait rounds.
func EmptyCallUS(t *testing.T) float64 {
	t.Helper()
	RegisterLibrary("libempty.so", Library{
		"empty": func(ctx *Ctx, args []uint64) (uint64, error) { return 0, nil },
	})
	r := newRig(t)
	var us float64
	r.run(t, func(p *simtime.Proc) {
		vp, _ := r.card.CreateProcess(p)
		if err := vp.LoadLibrary(p, "libempty.so"); err != nil {
			t.Fatal(err)
		}
		k, _ := vp.FindSymbol(p, "libempty.so", "empty")
		ctx := vp.OpenContext(p)
		// Warm up so the worker's idle backoff is reset.
		for i := 0; i < 10; i++ {
			if _, err := ctx.Wait(p, ctx.Submit(p, k, nil)); err != nil {
				t.Fatal(err)
			}
		}
		start := p.Now()
		const reps = 100
		for i := 0; i < reps; i++ {
			if _, err := ctx.Wait(p, ctx.Submit(p, k, nil)); err != nil {
				t.Fatal(err)
			}
		}
		us = p.Now().Sub(start).Microseconds() / reps
	})
	return us
}
