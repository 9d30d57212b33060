package offload_test

import (
	"testing"

	"hamoffload/machine"
	"hamoffload/offload"
)

var (
	allocNone = offload.NewFunc0[int64]("offload.alloc.none",
		func(*offload.Ctx) (int64, error) { return 42, nil })
	allocAdd = offload.NewFunc2[int64]("offload.alloc.add",
		func(_ *offload.Ctx, a, b int64) (int64, error) { return a + b, nil })
)

// TestSyncAllocs pins a warm synchronous offload over the DMA protocol at
// what the API hands out: nothing for a kernel without arguments, the
// bound-argument closure for one with them. Sync keeps no future, the wire
// is encoded in the pooled call and the ring handle recycles. (Results and
// arguments stay below 256, which the generic codecs box for free.)
func TestSyncAllocs(t *testing.T) {
	m, err := machine.New(machine.Config{VEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	err = m.RunMain(func(p *machine.Proc) error {
		rt, err := machine.ConnectDMA(p, m, machine.ProtocolOptions{})
		if err != nil {
			return err
		}
		defer func() { _ = rt.Finalize() }()
		var v int64
		for _, tc := range []struct {
			name string
			want float64
			sync func() (int64, error)
		}{
			{"Func0", 0, func() (int64, error) { return offload.Sync(rt, 1, allocNone.Bind()) }},
			{"Func2", 1, func() (int64, error) { return offload.Sync(rt, 1, allocAdd.Bind(40, 2)) }},
		} {
			v, err = tc.sync() // warm the call pool, the ring handle and the codecs
			n := testing.AllocsPerRun(100, func() { v, err = tc.sync() })
			if err != nil || v != 42 {
				t.Fatalf("%s: Sync = %d, %v; want 42", tc.name, v, err)
			}
			if n != tc.want {
				t.Errorf("a warm %s Sync allocates %.1f objects, want %.0f", tc.name, n, tc.want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
