package core_test

import (
	"runtime"
	"testing"

	"hamoffload/internal/core"
	"hamoffload/machine"
)

// TestBulkPathAllocBytes pins what bulk data costs the Go heap on the VEO
// protocol, the path Fig. 10 measures: nothing that grows with n. Not a round
// trip of n bytes — Put, a kernel that ReadLocals the buffer, scales it and
// WriteLocals it back, Get — once a first trip has backed the VE buffer and
// made it one array, and not Put or Get by themselves. (With the reflection
// codec, the per-call byte buffers and the host bounce extent a round trip
// was about 11 n; with ReadLocal handing out a copy, 1 n.)
func TestBulkPathAllocBytes(t *testing.T) {
	const (
		elems  = 1 << 20 / 8
		nBytes = 8 * elems
		rounds = 4
	)
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
		buf, err := core.Allocate[float64](rt, 1, elems)
		if err != nil {
			return err
		}
		src, dst := make([]float64, elems), make([]float64, elems)
		for i := range src {
			src[i] = float64(i)
		}
		roundTrip := func() error {
			if err := core.Put(rt, src, buf); err != nil {
				return err
			}
			if _, err := core.Sync(rt, 1, fnScale.Bind(buf, 2)); err != nil {
				return err
			}
			return core.Get(rt, buf, dst)
		}
		// allocated returns the bytes fn allocates per run, after one
		// unmeasured run has backed the VE buffer.
		allocated := func(fn func() error) (uint64, error) {
			if err := fn(); err != nil {
				return 0, err
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < rounds; i++ {
				if err := fn(); err != nil {
					return 0, err
				}
			}
			runtime.ReadMemStats(&after)
			return (after.TotalAlloc - before.TotalAlloc) / rounds, nil
		}

		for _, op := range []struct {
			name string
			fn   func() error
		}{
			{"Put", func() error { return core.Put(rt, src, buf) }},
			{"Get", func() error { return core.Get(rt, buf, dst) }},
			{"round trip", roundTrip},
		} {
			name := op.name
			per, err := allocated(op.fn)
			if err != nil {
				return err
			}
			if limit := uint64(nBytes / 64); per > limit {
				t.Errorf("a %d-byte %s allocates %d bytes, want under %d: nothing in it may grow with n", nBytes, name, per, limit)
			}
			t.Logf("%s of %d bytes: %d bytes allocated", name, nBytes, per)
		}
		if dst[3] != 6 {
			t.Errorf("round trip left dst[3] = %v, want 3 scaled by 2", dst[3])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
