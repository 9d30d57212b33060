// Stencil: a 2D Jacobi heat-diffusion solver whose sweep kernel is offloaded
// to Vector Engines. One kernel shows two of the paper's points:
//
//   - On one VE there is one offload per sweep, so the protocol's per-offload
//     cost multiplies directly into the time to solution ("lower overhead
//     means ... offloads can become more fine-grained", §V-B). The program
//     solves over both protocols and compares them.
//   - On four VEs the grid is split row-wise, each partition with a ghost row
//     above and below. Every sweep first refreshes the ghost rows from the
//     neighbouring VEs with offload.Copy, the paper's copy primitive (Table
//     II: "the operation is orchestrated by the host"), then sweeps all
//     partitions in parallel with asynchronous offloads. On this platform
//     generation VE-to-VE data has no direct path, so each Copy stages
//     through the host, and the program reports the exchange's share.
//
// Every run is verified against a host-computed reference.
//
// Run with: go run ./examples/stencil
package main

import (
	"fmt"
	"log"
	"math"
	"slices"

	"hamoffload/machine"
	"hamoffload/offload"
)

const gridN = 128 // grid edge length, boundary included

// sweep performs one Jacobi sweep over a partition stored with one ghost row
// above and below: in and out hold (rows+2) x gridN values, and the sweep
// writes out's owned rows in place; its boundary rows equal in's, and its
// ghost rows are refreshed before the next sweep reads them. The flags mark a
// partition whose first or last owned row is a global boundary row, which
// Jacobi leaves fixed. 4 flops and 5 doubles of traffic per updated point,
// vectorised across all 8 VE cores.
var sweep = offload.NewFunc4[offload.Unit]("stencil.sweep",
	func(c *offload.Ctx, in, out offload.BufferPtr[float64], top, bottom int64) (offload.Unit, error) {
		v, err := offload.ReadLocal(c, in, 0, in.Count)
		if err != nil {
			return offload.Unit{}, err
		}
		res, err := offload.ReadLocal(c, out, 0, out.Count)
		if err != nil {
			return offload.Unit{}, err
		}
		lo, hi := int64(1), in.Count/gridN-2
		if top != 0 {
			lo++
		}
		if bottom != 0 {
			hi--
		}
		relax(v, res, lo, hi)
		points := (hi - lo + 1) * (gridN - 2)
		c.ChargeVector(4*points, 40*points, 8)
		return offload.Unit{}, nil
	})

// relax writes the Jacobi update of the interior of rows lo..hi of v into res.
func relax(v, res []float64, lo, hi int64) {
	for i := lo; i <= hi; i++ {
		for j := int64(1); j < gridN-1; j++ {
			res[i*gridN+j] = 0.25 * (v[(i-1)*gridN+j] + v[(i+1)*gridN+j] +
				v[i*gridN+j-1] + v[i*gridN+j+1])
		}
	}
}

// reference computes the same sweeps on the host over the whole grid.
func reference(grid []float64, iters int) []float64 {
	cur, next := slices.Clone(grid), slices.Clone(grid)
	for range iters {
		relax(cur, next, 1, gridN-2)
		cur, next = next, cur
	}
	return cur
}

// initialGrid is a cold plate with a hot top edge and a warm left edge.
func initialGrid() []float64 {
	g := make([]float64, gridN*gridN)
	for j := range gridN {
		g[j] = 100
	}
	for i := range gridN {
		g[i*gridN] = 50
	}
	return g
}

// copyRow copies row sr of src to row dr of dst, orchestrated by the host.
func copyRow(rt *offload.Runtime, src offload.BufferPtr[float64], sr int64, dst offload.BufferPtr[float64], dr int64) error {
	s, err := src.Offset(sr * gridN)
	if err != nil {
		return err
	}
	d, err := dst.Offset(dr * gridN)
	if err != nil {
		return err
	}
	return offload.Copy(rt, s, d, gridN)
}

// solve runs iters offloaded sweeps of the grid split over ves VEs, on the
// DMA protocol or the VEO one, checks the result against the host reference
// and returns the time of the sweeps and of their halo exchange.
func solve(dma bool, ves, iters int) (total, exchange machine.Duration, err error) {
	grid := initialGrid()
	got := make([]float64, len(grid))
	rows := int64(gridN / ves) // owned rows per VE
	part := (rows + 2) * gridN
	world := machine.World{Config: machine.Config{VEs: ves}, DMA: dma}
	_, err = world.Run(func(_ *machine.Proc, m *machine.Machine, rt *offload.Runtime) error {
		// Per-VE double buffers, the owned rows in rows 1..rows.
		var in, out []offload.BufferPtr[float64]
		slab := make([]float64, part)
		for v := range int64(ves) {
			copy(slab[gridN:], grid[v*rows*gridN:(v+1)*rows*gridN])
			for _, bufs := range []*[]offload.BufferPtr[float64]{&in, &out} {
				buf, err := offload.Allocate[float64](rt, offload.NodeID(v+1), part)
				if err != nil {
					return err
				}
				if err := offload.Put(rt, slab, buf); err != nil {
					return err
				}
				*bufs = append(*bufs, buf)
			}
		}

		start := m.Now()
		futs := make([]*offload.Future[offload.Unit], ves)
		for range iters {
			// The last owned row of v becomes the top ghost of v+1, and the
			// first owned row of v+1 the bottom ghost of v.
			exStart := m.Now()
			for v := 1; v < ves; v++ {
				if err := copyRow(rt, in[v-1], rows, in[v], 0); err != nil {
					return err
				}
				if err := copyRow(rt, in[v], 1, in[v-1], rows+1); err != nil {
					return err
				}
			}
			exchange += m.Now() - exStart

			for v := range ves {
				top, bottom := int64(0), int64(0)
				if v == 0 {
					top = 1
				}
				if v == ves-1 {
					bottom = 1
				}
				futs[v] = offload.Async(rt, offload.NodeID(v+1), sweep.Bind(in[v], out[v], top, bottom))
			}
			for _, f := range futs {
				if _, err := f.Get(); err != nil {
					return err
				}
			}
			in, out = out, in
		}
		total = m.Now() - start

		for v := range int64(ves) {
			if err := offload.Get(rt, in[v], slab); err != nil {
				return err
			}
			copy(got[v*rows*gridN:], slab[gridN:gridN+rows*gridN])
		}
		for _, buf := range append(in, out...) {
			if err := offload.Free(rt, buf); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	maxErr := 0.0
	for i, w := range reference(grid, iters) {
		maxErr = max(maxErr, math.Abs(got[i]-w))
	}
	if maxErr > 1e-12 {
		return 0, 0, fmt.Errorf("offloaded result diverges from the host reference (max err %g)", maxErr)
	}
	return total, exchange, nil
}

func main() {
	const sweeps = 50
	fmt.Printf("Jacobi %dx%d, %d offloaded sweeps on 1 VE (verified against host reference)\n",
		gridN, gridN, sweeps)
	var totals [2]machine.Duration
	for i, proto := range []string{"VEO", "DMA"} {
		total, _, err := solve(proto == "DMA", 1, sweeps)
		if err != nil {
			log.Fatalf("%s: %v", proto, err)
		}
		totals[i] = total
		fmt.Printf("  %-4s protocol: total %-10v per sweep %v\n", proto, total, total/sweeps)
	}
	fmt.Printf("DMA protocol shortens the solve by %.1fx at this offload granularity.\n",
		float64(totals[0])/float64(totals[1]))

	const ves, iters = 4, 10
	total, exchange, err := solve(true, ves, iters)
	if err != nil {
		log.Fatalf("%d VEs: %v", ves, err)
	}
	fmt.Printf("Jacobi %dx%d split over %d VEs, %d sweeps with halo exchange (verified)\n",
		gridN, gridN, ves, iters)
	fmt.Printf("  total %v; halo exchange %v (%.0f%% — host-staged VE-to-VE copies dominate)\n",
		total, exchange, 100*float64(exchange)/float64(total))
}
