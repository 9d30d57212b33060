package mpib_test

import (
	"strings"
	"testing"

	"hamoffload/internal/backend/dmab"
	"hamoffload/internal/backend/mpib"
	"hamoffload/internal/core"
	"hamoffload/internal/dma"
	"hamoffload/internal/hostmem"
	"hamoffload/internal/ib"
	"hamoffload/internal/pcie"
	"hamoffload/internal/simtime"
	"hamoffload/internal/topology"
	"hamoffload/internal/units"
	"hamoffload/internal/vemem"
	"hamoffload/internal/veos"
)

var mpEcho = core.NewFunc1[int64]("mpib.echo",
	func(c *core.Ctx, v int64) (int64, error) { return v * 3, nil })

// buildMachines assembles n one-VE machines on a shared engine.
func buildMachines(t *testing.T, eng *simtime.Engine, n int) [][]*veos.Card {
	t.Helper()
	tm := topology.DefaultTiming()
	sys := topology.A300_8()
	cards := make([][]*veos.Card, n)
	for i := 0; i < n; i++ {
		host, err := hostmem.New("vh", 2*units.GiB, tm.HostPageSize)
		if err != nil {
			t.Fatal(err)
		}
		veMem, err := vemem.New("ve", 4*units.GiB)
		if err != nil {
			t.Fatal(err)
		}
		fab, err := pcie.NewFabric(eng, sys, tm)
		if err != nil {
			t.Fatal(err)
		}
		path, err := fab.PathFrom(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		cards[i] = []*veos.Card{veos.NewCard(eng, 0, tm, host, veMem, path, dma.TranslateBulk4DMA)}
	}
	return cards
}

func TestConnectValidation(t *testing.T) {
	eng := simtime.NewEngine()
	fab, err := ib.NewFabric(eng, 2, ib.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	cards := buildMachines(t, eng, 3) // more machines than fabric hosts
	eng.Spawn("main", func(p *simtime.Proc) {
		if _, err := mpib.Connect(p, eng, fab, nil, dmab.Options{}); err == nil {
			t.Error("empty cluster accepted")
		}
		if _, err := mpib.Connect(p, eng, fab, cards, dmab.Options{}); err == nil {
			t.Error("cluster larger than fabric accepted")
		}
		if _, err := mpib.Connect(p, eng, fab,
			[][]*veos.Card{cards[0], nil}, dmab.Options{}); err == nil {
			t.Error("machine without VEs accepted")
		}
		eng.Stop()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	eng.Shutdown()
}

func TestRouting(t *testing.T) {
	eng := simtime.NewEngine()
	fab, err := ib.NewFabric(eng, 2, ib.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	cards := buildMachines(t, eng, 2)
	eng.Spawn("main", func(p *simtime.Proc) {
		defer eng.Stop()
		h, err := mpib.Connect(p, eng, fab, cards, dmab.Options{})
		if err != nil {
			t.Error(err)
			return
		}
		rt := core.NewRuntime(h, "x86_64-cluster")
		defer func() {
			if err := rt.Finalize(); err != nil {
				t.Error(err)
			}
		}()
		// Node 1 local, node 2 remote — both execute, twice: the second
		// round is timed, past each node's first-call costs.
		var took [3]simtime.Duration
		for i := 2; i < 6; i++ {
			node := i%2 + 1
			start := p.Now()
			v, err := core.Sync(rt, core.NodeID(node), mpEcho.Bind(int64(node)))
			if err != nil {
				t.Errorf("node %d: %v", node, err)
				return
			}
			if v != int64(node*3) {
				t.Errorf("node %d = %d", node, v)
			}
			took[node] = p.Now().Sub(start)
		}
		// The remote call crossed IB both ways: it takes at least two
		// sends' fixed cost (latency and a per-message cost at each end)
		// more than the local one.
		ibp := ib.DefaultParams()
		if hop := ibp.Latency + 2*ibp.PerMessage; took[2]-took[1] < 2*hop {
			t.Errorf("remote call %v, local %v: want two IB hops (%v each) more", took[2], took[1], hop)
		}
		// Out-of-range nodes rejected.
		if _, err := core.Sync(rt, 9, mpEcho.Bind(1)); err == nil ||
			!strings.Contains(err.Error(), "no node") {
			t.Errorf("bad node error = %v", err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	eng.Shutdown()
}

var mpBoom = core.NewFunc0[core.Unit]("mpib.boom",
	func(c *core.Ctx) (core.Unit, error) {
		return core.Unit{}, errBoom{}
	})

type errBoom struct{}

func (errBoom) Error() string { return "remote kernel failure" }

func TestRemoteErrorPropagation(t *testing.T) {
	eng := simtime.NewEngine()
	fab, err := ib.NewFabric(eng, 2, ib.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	cards := buildMachines(t, eng, 2)
	eng.Spawn("main", func(p *simtime.Proc) {
		defer eng.Stop()
		h, err := mpib.Connect(p, eng, fab, cards, dmab.Options{})
		if err != nil {
			t.Error(err)
			return
		}
		rt := core.NewRuntime(h, "x86_64-cluster")
		defer func() { _ = rt.Finalize() }()
		_, err = core.Sync(rt, 2, mpBoom.Bind()) // remote node
		if err == nil || !strings.Contains(err.Error(), "remote kernel failure") {
			t.Errorf("remote error = %v", err)
		}
		// Channel survives the failure.
		if v, err := core.Sync(rt, 2, mpEcho.Bind(4)); err != nil || v != 12 {
			t.Errorf("after failure: %d, %v", v, err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	eng.Shutdown()
}
