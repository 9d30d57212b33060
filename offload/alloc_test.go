package offload_test

import (
	"runtime"
	"testing"

	"hamoffload/machine"
	"hamoffload/offload"
)

var (
	allocNone = offload.NewFunc0[int64]("offload.alloc.none",
		func(*offload.Ctx) (int64, error) { return 42, nil })
	allocAdd = offload.NewFunc2[int64]("offload.alloc.add",
		func(_ *offload.Ctx, a, b int64) (int64, error) { return a + b, nil })
	// allocPayload is bench/perf sync-dma's widest kernel: an int64, a
	// float64 and a byte payload.
	allocPayload = offload.NewFunc3[int64]("offload.alloc.payload",
		func(_ *offload.Ctx, a int64, b float64, pay []byte) (int64, error) {
			s := a + int64(b)
			for _, c := range pay {
				s += int64(c)
			}
			return s, nil
		})
)

// TestSyncAllocs pins a warm synchronous offload over the DMA protocol at
// what the API hands out, which is nothing: Bind encodes the arguments into
// the functor itself, Sync keeps no future, the wire is encoded in the
// pooled call, the ring handle recycles, and the kernel reads a []byte
// argument in the message. The generic codecs' conversions through `any`
// stay off the heap whatever the value, so the arguments are large.
func TestSyncAllocs(t *testing.T) {
	m, err := machine.New(machine.Config{VEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	pay := make([]byte, 40) // sync-dma's widest request
	for i := range pay {
		pay[i] = byte(i)
	}
	err = m.RunMain(func(p *machine.Proc) error {
		rt, err := machine.ConnectDMA(p, m, machine.ProtocolOptions{})
		if err != nil {
			return err
		}
		defer func() { _ = rt.Finalize() }()
		var v int64
		for _, tc := range []struct {
			name   string
			result int64
			sync   func() (int64, error)
		}{
			{"Func0", 42, func() (int64, error) { return offload.Sync(rt, 1, allocNone.Bind()) }},
			{"Func2", 42, func() (int64, error) { return offload.Sync(rt, 1, allocAdd.Bind(40, 2)) }},
			{"Func2 of large values", 1<<40 + 123456, func() (int64, error) { return offload.Sync(rt, 1, allocAdd.Bind(1<<40, 123456)) }},
			{"Func3 with 40 payload bytes", 1<<40 + 7 + 780, func() (int64, error) { return offload.Sync(rt, 1, allocPayload.Bind(1<<40, 7.5, pay)) }},
		} {
			v, err = tc.sync() // warm the call pool, the ring handle and the codecs
			n := testing.AllocsPerRun(100, func() { v, err = tc.sync() })
			if err != nil || v != tc.result {
				t.Fatalf("%s: Sync = %d, %v; want %d", tc.name, v, err, tc.result)
			}
			if n != 0 {
				t.Errorf("a warm %s Sync allocates %.1f objects, want 0", tc.name, n)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

var allocScale = offload.NewFunc3[float64]("offload.alloc.scale",
	func(c *offload.Ctx, buf offload.BufferPtr[float64], n int64, f float64) (float64, error) {
		v, err := offload.ReadLocal(c, buf, 0, n)
		if err != nil {
			return 0, err
		}
		sum := 0.0
		for i := range v {
			v[i] *= f
			sum += v[i]
		}
		return sum, nil
	})

// TestTransferAllocs pins a data round over the VEO protocol — Put, a kernel
// over the buffer, Get. Cold, the first Put into a fresh buffer and the first
// kernel to ReadLocal it allocate the buffer's bytes once: the Put's store
// backs the whole buffer with one array, which the kernel reads in place.
// Warm, each step allocates nothing: the VH heap maps the caller's slice on a
// recycled extent, and a BufferPtr argument travels by value on both sides,
// neither boxed as a Marshaler nor kept in a closure.
func TestTransferAllocs(t *testing.T) {
	m, err := machine.New(machine.Config{VEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	err = m.RunMain(func(p *machine.Proc) error {
		rt, err := machine.ConnectVEO(p, m, machine.ProtocolOptions{})
		if err != nil {
			return err
		}
		defer func() { _ = rt.Finalize() }()
		const n = 64 << 10 // 512 KiB: the mapping spans two chunks
		buf, err := offload.Allocate[float64](rt, 1, n)
		if err != nil {
			return err
		}
		src, dst := make([]float64, n), make([]float64, n)
		for i := range src {
			src[i] = float64(i % 7)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := offload.Put(rt, src, buf); err != nil {
			return err
		}
		if _, err := offload.Sync(rt, 1, allocScale.Bind(buf, n, 2)); err != nil {
			return err
		}
		runtime.ReadMemStats(&after)
		grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(8*n*5/4)
		if grew >= limit {
			t.Errorf("the first Put into a fresh %d-byte buffer and the first kernel over it allocate %d bytes, want under %d", 8*n, grew, limit)
		}
		t.Logf("cold Put and Sync of a %d-byte buffer: %d bytes allocated", 8*n, grew)

		var sum float64
		scale := 1.0 // what the kernel runs below have multiplied the buffer by; their first Put writes src again
		for _, tc := range []struct {
			name string
			step func() error
		}{
			{"Put", func() error { return offload.Put(rt, src, buf) }},
			{"Sync", func() (err error) {
				sum, err = offload.Sync(rt, 1, allocScale.Bind(buf, n, 2))
				scale *= 2
				return err
			}},
			{"Get", func() error { return offload.Get(rt, buf, dst) }},
		} {
			err = tc.step() // warm the extent, the call pool and the codecs
			allocs := testing.AllocsPerRun(20, func() {
				if serr := tc.step(); serr != nil {
					err = serr
				}
			})
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if allocs != 0 {
				t.Errorf("a warm VEO %s allocates %.1f objects, want 0", tc.name, allocs)
			}
		}
		want := 0.0
		for i := range src {
			want += src[i] * scale
			if dst[i] != src[i]*scale {
				t.Fatalf("dst[%d] = %v, want %v", i, dst[i], src[i]*scale)
			}
		}
		if sum != want {
			t.Errorf("the last kernel summed %v, want %v", sum, want)
		}
		return offload.Free(rt, buf)
	})
	if err != nil {
		t.Fatal(err)
	}
}
