package machine_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"hamoffload/internal/topology"
	"hamoffload/internal/trace"
	"hamoffload/machine"
	"hamoffload/offload"
	"hamoffload/sched"
)

// This file pins the determinism of the cluster-wide scheduler: a seeded
// Map workload sharded over every VE of a 2x2 cluster, with message
// batching armed, must reproduce bit-identically across fresh runs — same
// results, same final simulated clock, and a byte-identical Chrome trace
// (the chaos-sweep standard, applied to the scheduling layer).

var schedVec = offload.NewFunc2[float64]("sched.vec",
	func(c *offload.Ctx, task, n int64) (float64, error) {
		s := 0.0
		for i := int64(0); i < n; i++ {
			s += float64(task*1000+i) * 0.5
		}
		return s, nil
	})

// schedOutcome is everything one scheduler run can observe.
type schedOutcome struct {
	results     []float64
	finalTime   machine.Duration
	chromeTrace []byte
}

// schedRun executes a 40-task Map over every VE of a fresh 2-machine,
// 2-VE-per-machine cluster under pol, with batching armed, and collects the
// outcome.
func schedRun(t *testing.T, pol sched.Policy) schedOutcome {
	t.Helper()
	tr := trace.NewTracer()
	timing := topology.DefaultTiming()
	timing.Tracer = tr
	cl, err := machine.NewCluster(2, machine.Config{VEs: 2, Timing: &timing})
	if err != nil {
		t.Fatal(err)
	}
	var out schedOutcome
	err = cl.RunMain(func(p *machine.Proc) error {
		rt, err := machine.ConnectCluster(p, cl, machine.ProtocolOptions{
			Batch: offload.BatchPolicy{MaxMessages: 8},
		})
		if err != nil {
			return err
		}
		defer func() { _ = rt.Finalize() }()
		nodes := cl.VENodes()
		if want := []offload.NodeID{1, 2, 3, 4}; !slices.Equal(nodes, want) {
			return fmt.Errorf("VENodes = %v, want %v", nodes, want)
		}
		s, err := offload.NewScheduler(rt, nodes, pol)
		if err != nil {
			return err
		}
		out.results, err = sched.Map(s, 40, func(task int) offload.Functor[float64] {
			return schedVec.Bind(int64(task), int64(8+(task%7)*31))
		})
		return err
	})
	if err != nil {
		t.Fatalf("sched run: %v", err)
	}
	out.finalTime = machine.Duration(cl.Eng.Now())
	var buf bytes.Buffer
	if err := tr.ExportChrome(&buf); err != nil {
		t.Fatalf("ExportChrome: %v", err)
	}
	out.chromeTrace = buf.Bytes()
	return out
}

func TestSchedulerDeterminism(t *testing.T) {
	for _, tc := range []struct {
		name string
		pol  func() sched.Policy
	}{
		{"round-robin", sched.RoundRobin},
		{"least-in-flight", sched.LeastInFlight},
		{"affinity", func() sched.Policy {
			return affinity(func(task int) offload.NodeID {
				return offload.NodeID(1 + (task*7)%4)
			})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := schedRun(t, tc.pol())
			b := schedRun(t, tc.pol())

			// The workload itself must have run to completion...
			if len(a.results) != 40 {
				t.Fatalf("run A: %d results, want 40", len(a.results))
			}
			// ...with correct results in task order.
			for task, got := range a.results {
				want := 0.0
				n := int64(8 + (task%7)*31)
				for i := int64(0); i < n; i++ {
					want += float64(int64(task)*1000+i) * 0.5
				}
				if got != want {
					t.Errorf("task %d = %v, want %v", task, got, want)
				}
			}

			// Bit-identical reproduction across fresh runs.
			if a.finalTime != b.finalTime {
				t.Errorf("final simulated time diverges: %v != %v", a.finalTime, b.finalTime)
			}
			for i := range a.results {
				if i < len(b.results) && a.results[i] != b.results[i] {
					t.Errorf("result %d diverges: %v != %v", i, a.results[i], b.results[i])
				}
			}
			if !bytes.Equal(a.chromeTrace, b.chromeTrace) {
				t.Errorf("Chrome trace exports diverge (%d vs %d bytes)",
					len(a.chromeTrace), len(b.chromeTrace))
			}
		})
	}
}

// TestSchedulerSingleMachine shards a Map across the VEs of one machine over
// the DMA protocol — the paper's own system, no cluster — with batching off,
// so the scheduler also composes with plain per-message offloads.
func TestSchedulerSingleMachine(t *testing.T) {
	m, err := machine.New(machine.Config{VEs: 4})
	if err != nil {
		t.Fatal(err)
	}
	err = m.RunMain(func(p *machine.Proc) error {
		rt, err := machine.ConnectDMA(p, m, machine.ProtocolOptions{})
		if err != nil {
			return err
		}
		defer func() { _ = rt.Finalize() }()
		s, err := offload.NewScheduler(rt, []offload.NodeID{1, 2, 3, 4}, sched.RoundRobin())
		if err != nil {
			return err
		}
		res, err := sched.Map(s, 10, func(task int) offload.Functor[float64] {
			return schedVec.Bind(int64(task), 4)
		})
		if err != nil {
			return err
		}
		for task, got := range res {
			want := 0.0
			for i := int64(0); i < 4; i++ {
				want += float64(int64(task)*1000+i) * 0.5
			}
			if got != want {
				return fmt.Errorf("task %d = %v, want %v", task, got, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// affinity places task i on node assign(i), one of the scheduler's.
type affinity func(task int) offload.NodeID

func (affinity) Name() string { return "affinity" }

func (a affinity) Pick(task int, nodes []offload.NodeID, _ []int) int {
	return slices.Index(nodes, a(task))
}

// TestVENodesNumbersEveryVE pins VENodes against the cluster layout: every
// VE of every machine, machine-major, as ConnectCluster numbers them.
func TestVENodesNumbersEveryVE(t *testing.T) {
	cl, err := machine.NewCluster(2, machine.Config{VEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if all := cl.VENodes(); !slices.Equal(all, []offload.NodeID{1, 2, 3, 4}) {
		t.Errorf("VENodes() = %v, want [1 2 3 4]", all)
	}
}
