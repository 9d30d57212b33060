package ring_test

import (
	"fmt"
	"sync"
	"testing"

	"hamoffload/internal/backend/ring"
	"hamoffload/internal/simtime"
	"hamoffload/internal/topology"
	"hamoffload/internal/trace"
	"hamoffload/internal/veos"
	"hamoffload/machine"
	"hamoffload/offload"
)

var regEcho = offload.NewFunc1[int64]("ring.registry_echo",
	func(c *offload.Ctx, v int64) (int64, error) {
		c.ChargeScalar(100)
		c.ChargeVector(v, 8*v, 8)
		return v, nil
	})

// veProcs returns the VE processes running on the machines' cards.
func veProcs(ms ...*machine.Machine) []*veos.Process {
	var procs []*veos.Process
	for _, m := range ms {
		for _, c := range m.Cards {
			if vp := c.Process(); vp != nil {
				procs = append(procs, vp)
			}
		}
	}
	return procs
}

// registered counts the processes that hold target state.
func registered(procs []*veos.Process) int {
	n := 0
	for _, vp := range procs {
		if ring.Registered(vp) {
			n++
		}
	}
	return n
}

// Target state must not outlive its VE process: every machine a process ever
// builds would otherwise stay reachable — cards, simulated memories and all —
// through it. Build and close several, over both protocols and the cluster
// backend (whose remote dmab instances close behind a proxy), crash and
// recover a VE on the way, and find that no process the machines ran holds
// target state.
func TestRegistryEmptyAfterClose(t *testing.T) {
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
			var ran []*veos.Process
			err = m.RunMain(func(p *machine.Proc) error {
				rt, err := connect(p, m)
				if err != nil {
					return err
				}
				ran = veProcs(m)
				if n := registered(ran); n != 2 || len(ran) != 2 {
					t.Errorf("%s: %d target states for %d running VE processes, want 2", name, n, len(ran))
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
				crashed := m.Cards[0].Process()
				m.Cards[0].Kill()
				if err := rt.RecoverNode(1); err != nil {
					return err
				}
				if ring.Registered(crashed) {
					t.Errorf("%s: the crashed process keeps its target state after recovery", name)
				}
				now := veProcs(m)
				if len(now) != 2 || now[0] == crashed || registered(now) != 2 {
					return fmt.Errorf("after recovery: %d target states for %d VE processes, want 2 with a fresh one on VE 0",
						registered(now), len(now))
				}
				ran = append(ran, now[0])
				if v, err := offload.Sync(rt, 1, regEcho.Bind(9)); err != nil || v != 9 {
					t.Errorf("%s: offload after recovery = %d, %v", name, v, err)
				}
				return rt.Finalize()
			})
			if err != nil {
				t.Fatalf("%s round %d: %v", name, round, err)
			}
			if n := registered(ran); n != 0 {
				t.Fatalf("%s round %d: %d target states outlive their processes", name, round, n)
			}
		}
	}

	c, err := machine.NewCluster(2, machine.Config{VEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	var ran []*veos.Process
	err = c.RunMain(func(p *machine.Proc) error {
		rt, err := machine.ConnectCluster(p, c, machine.ProtocolOptions{})
		if err != nil {
			return err
		}
		ran = veProcs(c.Nodes...)
		if n := registered(ran); n != 2 || len(ran) != 2 {
			t.Errorf("cluster: %d target states for %d running VE processes, want 2", n, len(ran))
		}
		return rt.Finalize()
	})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	if n := registered(ran); n != 0 {
		t.Fatalf("cluster: %d target states outlive their processes", n)
	}
}

// Machines share no target state: a dmab and a veob machine connect, offload
// and close at once, each from a goroutine of its own (under -race, a shared
// registry of VE targets shows here), and no process either ran keeps any.
func TestParallelMachinesConnect(t *testing.T) {
	connects := map[string]func(*machine.Proc, *machine.Machine, machine.ProtocolOptions) (*offload.Runtime, error){
		"dma": machine.ConnectDMA, "veo": machine.ConnectVEO,
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(connects))
	for name, connect := range connects {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ran []*veos.Process
			m, err := machine.New(machine.Config{VEs: 2})
			if err == nil {
				err = m.RunMain(func(p *machine.Proc) error {
					rt, err := connect(p, m, machine.ProtocolOptions{})
					if err != nil {
						return err
					}
					ran = veProcs(m)
					for node := offload.NodeID(1); node <= 2; node++ {
						if v, err := offload.Sync(rt, node, regEcho.Bind(int64(10*node))); err != nil || v != int64(10*node) {
							return fmt.Errorf("offload to node %d = %d, %v", node, v, err)
						}
					}
					return rt.Finalize()
				})
			}
			if n := registered(ran); err == nil && (len(ran) != 2 || n != 0) {
				err = fmt.Errorf("%d target states outlive %d VE processes", n, len(ran))
			}
			if err != nil {
				errs <- fmt.Errorf("%s: %w", name, err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
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
