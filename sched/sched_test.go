package sched_test

import (
	"sync"
	"testing"

	"hamoffload/internal/backend/locb"
	"hamoffload/internal/core"
	"hamoffload/machine"
	"hamoffload/sched"
)

// Unit tests of the placement policies (pure functions, no backend) and the
// scheduler's validation. The end-to-end behaviour — Map over a cluster,
// batching composition, determinism — lives in machine/sched_test.go.

func TestRoundRobinCycles(t *testing.T) {
	pol := sched.RoundRobin()
	nodes := []core.NodeID{1, 2, 3}
	idle := []int{0, 0, 0}
	for task := 0; task < 9; task++ {
		if got, want := pol.Pick(task, nodes, idle), task%3; got != want {
			t.Fatalf("task %d -> %d, want %d", task, got, want)
		}
	}
}

func TestLeastInFlightPicksMinAndBreaksTiesLow(t *testing.T) {
	pol := sched.LeastInFlight()
	nodes := []core.NodeID{1, 2, 3, 4}
	for _, tc := range []struct {
		inflight []int
		want     int
	}{
		{[]int{0, 0, 0, 0}, 0}, // all idle: lowest index
		{[]int{2, 1, 3, 1}, 1}, // tie between 1 and 3: lowest index
		{[]int{5, 4, 3, 9}, 2},
		{[]int{1, 0, 0, 0}, 1},
	} {
		if got := pol.Pick(0, nodes, tc.inflight); got != tc.want {
			t.Errorf("inflight %v -> %d, want %d", tc.inflight, got, tc.want)
		}
	}
}

func TestAffinityMapsAndFallsBack(t *testing.T) {
	nodes := []core.NodeID{3, 5, 7}
	pol := sched.Affinity(func(task int) core.NodeID {
		if task < 3 {
			return nodes[task]
		}
		return 42 // not a scheduler node: falls back to round-robin by index
	})
	for task := 0; task < 3; task++ {
		if got := pol.Pick(task, nodes, []int{0, 0, 0}); got != task {
			t.Errorf("task %d -> %d, want %d", task, got, task)
		}
	}
	for task := 3; task < 9; task++ {
		if got, want := pol.Pick(task, nodes, []int{0, 0, 0}), task%3; got != want {
			t.Errorf("fallback task %d -> %d, want %d", task, got, want)
		}
	}
}

func TestNewValidation(t *testing.T) {
	hb, tb, err := locb.NewPair(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	target := core.NewRuntime(tb, "sched-target")
	host := core.NewRuntime(hb, "sched-host")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := target.Serve(); err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	defer func() {
		if err := host.Finalize(); err != nil {
			t.Errorf("Finalize: %v", err)
		}
		wg.Wait()
	}()

	if _, err := sched.New(host, nil, sched.RoundRobin()); err == nil {
		t.Error("empty node set accepted")
	}
	if _, err := sched.New(host, []core.NodeID{1}, nil); err == nil {
		t.Error("nil policy accepted")
	}
	if _, err := sched.New(host, []core.NodeID{0}, sched.RoundRobin()); err == nil {
		t.Error("self node accepted")
	}
	if _, err := sched.New(host, []core.NodeID{99}, sched.RoundRobin()); err == nil {
		t.Error("out-of-range node accepted")
	}
	s, err := sched.New(host, sched.Targets(host), sched.RoundRobin())
	if err != nil {
		t.Fatalf("valid scheduler rejected: %v", err)
	}
	if n := s.Nodes(); len(n) != 1 || n[0] != 1 {
		t.Errorf("Targets = %v, want [1]", n)
	}
}

var schedAdd = core.NewFunc2[int64]("sched.test_add",
	func(_ *core.Ctx, a, b int64) (int64, error) { return a + b, nil })

// TestMapFuturesAllocs: MapFutures keeps a call's futures, their settle
// records and the pointers it returns in one slab each, and takes its
// batcher from the scheduler, so a warm wave costs exactly those three
// objects whatever its size — 64 or 512 tasks over two VEs in batch frames
// of 8 — and a further settle hook on every future chains through the
// runtime's free list for nothing.
func TestMapFuturesAllocs(t *testing.T) {
	const slabs = 3
	m, err := machine.New(machine.Config{VEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	err = m.RunMain(func(p *machine.Proc) error {
		rt, err := machine.ConnectDMA(p, m, machine.ProtocolOptions{Batch: core.BatchPolicy{MaxMessages: 8}})
		if err != nil {
			return err
		}
		defer func() { _ = rt.Finalize() }()
		s, err := sched.New(rt, sched.Targets(rt), sched.LeastInFlight())
		if err != nil {
			return err
		}
		// The functors are bound up front: the pin is MapFutures', not Bind's.
		fns := make([]core.Functor[int64], 512)
		for task := range fns {
			fns[task] = schedAdd.Bind(int64(task), 1)
		}
		var bad int
		hook := &settleCount{}
		wave := func(n int, hooked bool) func() {
			return func() {
				futs := sched.MapFutures(s, n, func(task int) core.Functor[int64] { return fns[task] })
				for _, f := range futs {
					if hooked {
						f.OnSettleHook(hook)
					}
				}
				for task, f := range futs {
					if v, err := f.Get(); err != nil || v != int64(task)+1 {
						bad++
					}
				}
			}
		}
		wave(512, true)() // warm the call pool, the ring handles, the batcher and the chain nodes
		for _, hooked := range []bool{false, true} {
			for _, n := range []int{64, 512} {
				if got := testing.AllocsPerRun(10, wave(n, hooked)); got != slabs {
					t.Errorf("MapFutures of %d tasks (further hook %v) allocates %.0f objects, want %d", n, hooked, got, slabs)
				}
			}
		}
		if bad != 0 || s.Completed() != s.Issued() {
			t.Errorf("%d wrong results; %d of %d tasks settled", bad, s.Completed(), s.Issued())
		}
		if want := int64(512 + 11*(64+512)); hook.n != want {
			t.Errorf("further hooks ran %d times, want %d", hook.n, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// settleCount is a settle hook that counts its settlements.
type settleCount struct{ n int64 }

func (h *settleCount) FutureSettled() { h.n++ }
