package ring_test

import (
	"testing"

	"hamoffload/internal/backend/ring"
	"hamoffload/internal/simtime"
	"hamoffload/internal/topology"
	"hamoffload/internal/trace"
	"hamoffload/machine"
	"hamoffload/offload"
)

var regEcho = offload.NewFunc1[int64]("ring.registry_echo",
	func(c *offload.Ctx, v int64) (int64, error) {
		c.ChargeScalar(100)
		c.ChargeVector(v, 8*v, 8)
		return v, nil
	})

// Target state must not outlive its VE process: every machine a process ever
// builds would otherwise stay reachable — cards, simulated memories and all —
// through the registry. Build and close several, over both protocols and the
// cluster backend (whose remote dmab instances close behind a proxy), crash
// and recover a VE on the way, and find the registry empty.
func TestRegistryEmptyAfterClose(t *testing.T) {
	if n := ring.Registered(); n != 0 {
		t.Fatalf("%d target states registered before any machine was built", n)
	}
	connects := map[string]func(p *machine.Proc, m *machine.Machine) (*offload.Runtime, error){
		"veo": func(p *machine.Proc, m *machine.Machine) (*offload.Runtime, error) {
			return machine.ConnectVEO(p, m, machine.ProtocolOptions{})
		},
		"dma": func(p *machine.Proc, m *machine.Machine) (*offload.Runtime, error) {
			return machine.ConnectDMA(p, m, machine.ProtocolOptions{})
		},
	}
	for name, connect := range connects {
		for round := 0; round < 3; round++ {
			m, err := machine.New(machine.Config{VEs: 2})
			if err != nil {
				t.Fatal(err)
			}
			err = m.RunMain(func(p *machine.Proc) error {
				rt, err := connect(p, m)
				if err != nil {
					return err
				}
				if n := ring.Registered(); n != 2 {
					t.Errorf("%s: %d target states for 2 running VE processes", name, n)
				}
				if _, err := offload.Sync(rt, 2, regEcho.Bind(7)); err != nil {
					return err
				}
				// Bulk data takes the VEO path under either protocol.
				buf, err := offload.Allocate[int64](rt, 2, 4)
				if err != nil {
					return err
				}
				back := make([]int64, 4)
				if err := offload.Put(rt, []int64{1, 2, 3, 4}, buf); err != nil {
					return err
				}
				if err := offload.Get(rt, buf, back); err != nil || back[3] != 4 {
					t.Errorf("%s: Get = %v, %v", name, back, err)
				}
				// A crashed process takes its state with it when RecoverNode
				// reaps it; the replacement registers afresh.
				m.Cards[0].Kill()
				if err := rt.RecoverNode(1); err != nil {
					return err
				}
				if n := ring.Registered(); n != 2 {
					t.Errorf("%s: %d target states after recovery, want 2", name, n)
				}
				if v, err := offload.Sync(rt, 1, regEcho.Bind(9)); err != nil || v != 9 {
					t.Errorf("%s: offload after recovery = %d, %v", name, v, err)
				}
				return rt.Finalize()
			})
			if err != nil {
				t.Fatalf("%s round %d: %v", name, round, err)
			}
			if n := ring.Registered(); n != 0 {
				t.Fatalf("%s round %d: %d target states outlive their machine", name, round, n)
			}
		}
	}

	c, err := machine.NewCluster(2, machine.Config{VEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	err = c.RunMain(func(p *machine.Proc) error {
		rt, err := machine.ConnectCluster(p, c, machine.ProtocolOptions{})
		if err != nil {
			return err
		}
		if n := ring.Registered(); n != 2 {
			t.Errorf("cluster: %d target states for 2 running VE processes", n)
		}
		return rt.Finalize()
	})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	if n := ring.Registered(); n != 0 {
		t.Fatalf("cluster: %d target states outlive their machines", n)
	}
}

// A target runtime is handed no clock of its own: its telemetry stamps come
// from its backend's Clock — the kernel context ham_main runs on — so the
// execute event of a causal record lands between the host's issue and settle
// events instead of at t=0.
func TestTargetFlowEventsCarryVETime(t *testing.T) {
	for name, connect := range map[string]func(*machine.Proc, *machine.Machine, machine.ProtocolOptions) (*offload.Runtime, error){
		"veo": machine.ConnectVEO, "dma": machine.ConnectDMA,
	} {
		tr := trace.New(trace.Config{Flows: true})
		timing := topology.DefaultTiming()
		timing.Tracer = tr
		m, err := machine.New(machine.Config{VEs: 1, Timing: &timing})
		if err != nil {
			t.Fatal(err)
		}
		err = m.RunMain(func(p *machine.Proc) error {
			rt, err := connect(p, m, machine.ProtocolOptions{})
			if err != nil {
				return err
			}
			defer func() { _ = rt.Finalize() }()
			_, err = offload.Sync(rt, 1, regEcho.Bind(3))
			return err
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		at := map[trace.FlowKind]simtime.Time{}
		events := tr.FlowEvents()
		for _, e := range events {
			if e.ID == events[0].ID { // the echo's record; terminate's follows
				at[e.Kind] = e.T
			}
		}
		issue, exec, settle := at[trace.FlowIssue], at[trace.FlowExecute], at[trace.FlowSettle]
		if !(0 < issue && issue < exec && exec < settle) {
			t.Errorf("%s: issue %v, execute %v, settle %v: the target's event is off the VE's clock", name, issue, exec, settle)
		}
	}
}
