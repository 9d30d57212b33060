package machine_test

import (
	"strings"
	"testing"

	"hamoffload/machine"
	"hamoffload/offload"
)

var (
	clSquare = offload.NewFunc1[int64]("cluster.square",
		func(c *offload.Ctx, v int64) (int64, error) { return v * v, nil })

	clWhere = offload.NewFunc0[int]("cluster.where",
		func(c *offload.Ctx) (int, error) { return int(c.Node()), nil })

	clSum = offload.NewFunc1[float64]("cluster.sum",
		func(c *offload.Ctx, b offload.BufferPtr[float64]) (float64, error) {
			v, err := offload.ReadLocal(c, b, 0, b.Count)
			if err != nil {
				return 0, err
			}
			s := 0.0
			for _, x := range v {
				s += x
			}
			return s, nil
		})
)

// TestClusterRemoteOffload exercises the §VI outlook: offloading to VEs on a
// remote machine over InfiniBand, with unchanged application code.
func TestClusterRemoteOffload(t *testing.T) {
	c, err := machine.NewCluster(2, machine.Config{VEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	err = c.RunMain(func(p *machine.Proc) error {
		rt, err := machine.ConnectCluster(p, c, machine.ProtocolOptions{})
		if err != nil {
			return err
		}
		defer func() { _ = rt.Finalize() }()

		// 1 host + 2 machines × 2 VEs.
		if rt.NumNodes() != 5 {
			t.Errorf("NumNodes = %d, want 5", rt.NumNodes())
		}
		// Nodes 1,2 local; 3,4 remote. The same functor works on all.
		for node := 1; node <= 4; node++ {
			v, err := offload.Sync(rt, offload.NodeID(node), clSquare.Bind(int64(node+10)))
			if err != nil {
				return err
			}
			if v != int64((node+10)*(node+10)) {
				t.Errorf("node %d: square = %d", node, v)
			}
			w, err := offload.Sync(rt, offload.NodeID(node), clWhere.Bind())
			if err != nil {
				return err
			}
			if w != node {
				t.Errorf("node %d reports itself as %d", node, w)
			}
		}
		// Descriptors identify machines.
		if d := rt.GetNodeDescriptor(3); !strings.Contains(d.Device, "machine 1") {
			t.Errorf("remote descriptor = %+v", d)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestClusterRemoteDataPath moves data to a remote VE with put, reduces it
// there, and reads it back with get — all staged over IB.
func TestClusterRemoteDataPath(t *testing.T) {
	c, err := machine.NewCluster(2, machine.Config{VEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	err = c.RunMain(func(p *machine.Proc) error {
		rt, err := machine.ConnectCluster(p, c, machine.ProtocolOptions{})
		if err != nil {
			return err
		}
		defer func() { _ = rt.Finalize() }()
		remote := offload.NodeID(2) // machine 1's VE

		const n = 4096
		vals := make([]float64, n)
		want := 0.0
		for i := range vals {
			vals[i] = float64(i % 17)
			want += vals[i]
		}
		buf, err := offload.Allocate[float64](rt, remote, n)
		if err != nil {
			return err
		}
		if err := offload.Put(rt, vals, buf); err != nil {
			return err
		}
		got, err := offload.Sync(rt, remote, clSum.Bind(buf))
		if err != nil {
			return err
		}
		if got != want {
			t.Errorf("remote sum = %v, want %v", got, want)
		}
		back := make([]float64, n)
		if err := offload.Get(rt, buf, back); err != nil {
			return err
		}
		for i := range vals {
			if back[i] != vals[i] {
				t.Fatalf("remote get mismatch at %d", i)
			}
		}
		return offload.Free(rt, buf)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestClusterRemoteCostsMoreThanLocal verifies the latency hierarchy: a
// remote offload pays the IB round trip plus proxy forwarding on top of the
// local DMA-protocol cost.
func TestClusterRemoteCostsMoreThanLocal(t *testing.T) {
	c, err := machine.NewCluster(2, machine.Config{VEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	err = c.RunMain(func(p *machine.Proc) error {
		rt, err := machine.ConnectCluster(p, c, machine.ProtocolOptions{})
		if err != nil {
			return err
		}
		defer func() { _ = rt.Finalize() }()
		measure := func(node offload.NodeID) float64 {
			for i := 0; i < 10; i++ {
				if _, err := offload.Sync(rt, node, clSquare.Bind(1)); err != nil {
					t.Fatal(err)
				}
			}
			start := c.Eng.Now()
			const reps = 50
			for i := 0; i < reps; i++ {
				if _, err := offload.Sync(rt, node, clSquare.Bind(1)); err != nil {
					t.Fatal(err)
				}
			}
			return (c.Eng.Now() - start).Microseconds() / reps
		}
		local := measure(1)
		remote := measure(2)
		if local < 5 || local > 8 {
			t.Errorf("local offload = %.2f us, want ≈6", local)
		}
		// Remote adds two IB messages (~2 µs each) plus proxy progress.
		if remote < local+3 || remote > local+25 {
			t.Errorf("remote offload = %.2f us vs local %.2f us", remote, local)
		}
		t.Logf("local=%.2fus remote=%.2fus", local, remote)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestClusterAsyncFanOut keeps every VE of both machines busy at once.
func TestClusterAsyncFanOut(t *testing.T) {
	c, err := machine.NewCluster(2, machine.Config{VEs: 4})
	if err != nil {
		t.Fatal(err)
	}
	err = c.RunMain(func(p *machine.Proc) error {
		rt, err := machine.ConnectCluster(p, c, machine.ProtocolOptions{})
		if err != nil {
			return err
		}
		defer func() { _ = rt.Finalize() }()
		var futs []*offload.Future[int64]
		for node := 1; node <= 8; node++ {
			futs = append(futs, offload.Async(rt, offload.NodeID(node), clSquare.Bind(int64(node))))
		}
		for i, f := range futs {
			v, err := f.Get()
			if err != nil {
				return err
			}
			if v != int64((i+1)*(i+1)) {
				t.Errorf("fan-out %d = %d", i, v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := machine.NewCluster(1, machine.Config{}); err == nil {
		t.Error("single-node cluster accepted")
	}
	if _, err := machine.NewCluster(2, machine.Config{VEs: 99}); err == nil {
		t.Error("bad per-node config accepted")
	}
}
