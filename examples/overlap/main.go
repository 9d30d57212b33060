// Overlap: communication/computation overlap with double buffering — the
// property the paper's one-sided protocols are designed for: "the VH can
// write messages via PCIe into the VE memory while the VE is executing a
// previously received active message in parallel — thus enabling overlap of
// communication and computation" (§III-D).
//
// A stream of data chunks is reduced on a Vector Engine in two schedules:
//
//	serial:   put(chunk) → offload(reduce) → wait, one chunk at a time
//	overlap:  two VE buffers; while the VE reduces chunk i, the host already
//	          puts chunk i+1 into the other buffer
//
// Both schedules produce the same total; the overlapped one hides most of
// the transfer time behind the kernel, and the program reports the gain.
//
// Run with: go run ./examples/overlap
package main

import (
	"fmt"
	"log"

	"hamoffload/machine"
	"hamoffload/offload"
)

const (
	chunkElems = 1 << 17 // 1 MiB of float64 per chunk
	numChunks  = 24
)

// reduceChunk sums a chunk VE-side. The charge makes the kernel take about
// as long as the 1 MiB transfer, the sweet spot for overlap.
var reduceChunk = offload.NewFunc2[float64]("overlap.reduce_chunk",
	func(c *offload.Ctx, buf offload.BufferPtr[float64], n int64) (float64, error) {
		v, err := offload.ReadLocal(c, buf, 0, n)
		if err != nil {
			return 0, err
		}
		// A compute-heavy pass sized to roughly match the ~200 µs transfer
		// time of one chunk — the balanced case where overlap pays most.
		c.ChargeVector(350*n, 8*n, 1)
		s := 0.0
		for _, x := range v {
			s += x
		}
		return s, nil
	})

func chunk(i int) []float64 {
	data := make([]float64, chunkElems)
	for j := range data {
		data[j] = float64(i + 1)
	}
	return data
}

func wantTotal() float64 {
	total := 0.0
	for i := 0; i < numChunks; i++ {
		total += float64(i+1) * chunkElems
	}
	return total
}

func run(overlapped bool) (machine.Duration, float64, error) {
	var span machine.Duration
	var total float64
	_, err := machine.World{DMA: true}.Run(func(_ *machine.Proc, m *machine.Machine, rt *offload.Runtime) error {
		target := offload.NodeID(1)

		bufs := make([]offload.BufferPtr[float64], 2)
		for i := range bufs {
			var err error
			if bufs[i], err = offload.Allocate[float64](rt, target, chunkElems); err != nil {
				return err
			}
		}

		start := m.Now()
		if !overlapped {
			for i := 0; i < numChunks; i++ {
				if err := offload.Put(rt, chunk(i), bufs[0]); err != nil {
					return err
				}
				r, err := offload.Sync(rt, target, reduceChunk.Bind(bufs[0], int64(chunkElems)))
				if err != nil {
					return err
				}
				total += r
			}
		} else {
			// Prime the pipeline: chunk 0 into buffer 0.
			if err := offload.Put(rt, chunk(0), bufs[0]); err != nil {
				return err
			}
			var inflight *offload.Future[float64]
			for i := 0; i < numChunks; i++ {
				cur := bufs[i%2]
				nxt := bufs[(i+1)%2]
				inflight = offload.Async(rt, target, reduceChunk.Bind(cur, int64(chunkElems)))
				// While the VE reduces chunk i, transfer chunk i+1.
				if i+1 < numChunks {
					if err := offload.Put(rt, chunk(i+1), nxt); err != nil {
						return err
					}
				}
				r, err := inflight.Get()
				if err != nil {
					return err
				}
				total += r
			}
		}
		span = m.Now() - start
		for i := range bufs {
			if err := offload.Free(rt, bufs[i]); err != nil {
				return err
			}
		}
		return nil
	})
	return span, total, err
}

func main() {
	want := wantTotal()
	serial, totalA, err := run(false)
	if err != nil {
		log.Fatal(err)
	}
	overlap, totalB, err := run(true)
	if err != nil {
		log.Fatal(err)
	}
	for name, v := range map[string]float64{"serial": totalA, "overlapped": totalB} {
		if d := v - want; d > 1e-3 || d < -1e-3 {
			log.Fatalf("%s total = %v, want %v", name, v, want)
		}
	}
	fmt.Printf("Streaming reduction of %d x %d MiB chunks on one VE (DMA protocol)\n",
		numChunks, chunkElems*8>>20)
	fmt.Printf("  serial schedule      : %v\n", serial)
	fmt.Printf("  double-buffered      : %v\n", overlap)
	fmt.Printf("  overlap hides %.0f%% of the schedule\n",
		(1-float64(overlap)/float64(serial))*100)
}
