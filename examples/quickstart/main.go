// Quickstart: the paper's Fig. 2 example, ported from C++ to Go — compute
// the inner product of two vectors on a Vector Engine.
//
// The program allocates target memory, transfers the inputs with put,
// offloads the inner_prod function asynchronously, overlaps host work with
// the offload, and synchronises on the future. It runs the same application
// code over both of the paper's messaging protocols and reports the offload
// round-trip times, which reproduce the ~70× gap of Fig. 9 at application
// level.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"hamoffload/machine"
	"hamoffload/offload"
)

// innerProd is the offloaded function from Fig. 2. Registration at package
// level mirrors the C++ template instantiation: the same "binary" contents
// exist on host and target.
var innerProd = offload.NewFunc3[float64]("quickstart.inner_prod",
	func(c *offload.Ctx, a, b offload.BufferPtr[float64], n int64) (float64, error) {
		av, err := offload.ReadLocal(c, a, 0, n)
		if err != nil {
			return 0, err
		}
		bv, err := offload.ReadLocal(c, b, 0, n)
		if err != nil {
			return 0, err
		}
		// 2 flops and 16 bytes of HBM traffic per element, on all 8 cores.
		c.ChargeVector(2*n, 16*n, 8)
		r := 0.0
		for i := int64(0); i < n; i++ {
			r += av[i] * bv[i]
		}
		return r, nil
	})

func main() {
	const n = 1024

	// Host memory, as in Fig. 2.
	a := make([]float64, n)
	b := make([]float64, n)
	want := 0.0
	for i := range a {
		a[i] = float64(i)
		b[i] = 1.0 / float64(i+1)
		want += a[i] * b[i]
	}

	for i, proto := range []string{"VEO protocol (Fig. 5)", "DMA protocol (Fig. 8)"} {
		_, err := machine.World{DMA: i == 1}.Run(func(_ *machine.Proc, m *machine.Machine, rt *offload.Runtime) error {
			target := offload.NodeID(1)

			// Target memory.
			aT, err := offload.Allocate[float64](rt, target, n)
			if err != nil {
				return err
			}
			bT, err := offload.Allocate[float64](rt, target, n)
			if err != nil {
				return err
			}

			// Transfer memory.
			if err := offload.Put(rt, a, aT); err != nil {
				return err
			}
			if err := offload.Put(rt, b, bT); err != nil {
				return err
			}

			// Async offload; returns a future<float64>.
			start := m.Now()
			result := offload.Async(rt, target, innerProd.Bind(aT, bT, n))

			// Do something in parallel on the host while the VE computes.
			hostSide := 0.0
			for i := 0; i < n; i++ {
				hostSide += a[i]
			}

			// Sync on the result future.
			c, err := result.Get()
			if err != nil {
				return err
			}
			elapsed := m.Now() - start

			fmt.Printf("%-22s inner product = %.6f (expected %.6f), offload round trip = %v\n",
				proto, c, want, elapsed)
			if diff := c - want; diff > 1e-9 || diff < -1e-9 {
				return fmt.Errorf("wrong result: %v != %v", c, want)
			}

			if err := offload.Free(rt, aT); err != nil {
				return err
			}
			return offload.Free(rt, bT)
		})
		if err != nil {
			log.Fatal(err)
		}
	}
}
