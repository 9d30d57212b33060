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
// events instead of at t=0. The trace IDs reach the target beside the
// messages on every path: both slot-ring protocols, a VE of a remote
// machine through mpib's proxy, and the entries of a batch frame.
func TestTargetFlowEventsCarryVETime(t *testing.T) {
	type connect func(*machine.Proc, *machine.Machine, machine.ProtocolOptions) (*offload.Runtime, error)
	offloads := func(node offload.NodeID) func(*offload.Runtime) error {
		return func(rt *offload.Runtime) error {
			_, err := offload.Sync(rt, node, regEcho.Bind(3))
			return err
		}
	}
	single := func(c connect, opts machine.ProtocolOptions, work func(*offload.Runtime) error) func(*trace.Tracer) error {
		return func(tr *trace.Tracer) error {
			timing := topology.DefaultTiming()
			timing.Tracer = tr
			m, err := machine.New(machine.Config{VEs: 1, Timing: &timing})
			if err != nil {
				return err
			}
			return m.RunMain(func(p *machine.Proc) error {
				rt, err := c(p, m, opts)
				if err != nil {
					return err
				}
				defer func() { _ = rt.Finalize() }()
				return work(rt)
			})
		}
	}
	remote := func(tr *trace.Tracer) error {
		timing := topology.DefaultTiming()
		timing.Tracer = tr
		c, err := machine.NewCluster(2, machine.Config{VEs: 1, Timing: &timing})
		if err != nil {
			return err
		}
		return c.RunMain(func(p *machine.Proc) error {
			rt, err := machine.ConnectCluster(p, c, machine.ProtocolOptions{})
			if err != nil {
				return err
			}
			defer func() { _ = rt.Finalize() }()
			return offloads(c.VENodes()[1])(rt)
		})
	}
	batch := func(rt *offload.Runtime) error {
		_, err := offload.GetAll(offload.AsyncBatch(rt, 1, []offload.Functor[int64]{
			regEcho.Bind(1), regEcho.Bind(2), regEcho.Bind(3),
		}))
		return err
	}
	for _, row := range []struct {
		name  string
		run   func(*trace.Tracer) error
		execs int // the offloads and Finalize's terminates
	}{
		{"veo", single(machine.ConnectVEO, machine.ProtocolOptions{}, offloads(1)), 2},
		{"dma", single(machine.ConnectDMA, machine.ProtocolOptions{}, offloads(1)), 2},
		{"mpib remote VE", remote, 3},
		{"batch frame", single(machine.ConnectDMA, machine.ProtocolOptions{Batch: offload.BatchPolicy{MaxMessages: 3}}, batch), 4},
	} {
		tr := trace.New(trace.Config{Flows: true})
		if err := row.run(tr); err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		at := map[uint64]map[trace.FlowKind]simtime.Time{}
		for _, e := range tr.FlowEvents() {
			if at[e.ID] == nil {
				at[e.ID] = map[trace.FlowKind]simtime.Time{}
			}
			at[e.ID][e.Kind] = e.T
		}
		if len(at) != row.execs {
			t.Errorf("%s: %d causal records, want %d", row.name, len(at), row.execs)
		}
		for id, ev := range at {
			issue, exec, settle := ev[trace.FlowIssue], ev[trace.FlowExecute], ev[trace.FlowSettle]
			if !(0 < issue && issue < exec && exec < settle) {
				t.Errorf("%s: 0x%x issued %v, executed %v, settled %v: the target's event is off the VE's clock, or missing", row.name, id, issue, exec, settle)
			}
		}
	}
}

// A VE recovered after a crash serves its first messages in the slots and
// under the sequence numbers the dead process had messages waiting in, but
// not under their trace IDs: every execute the recovered process records
// belongs to an offload issued after the recovery.
func TestRecoveredVEInheritsNoTraceIDs(t *testing.T) {
	tr := trace.New(trace.Config{Flows: true})
	timing := topology.DefaultTiming()
	timing.Tracer = tr
	m, err := machine.New(machine.Config{VEs: 1, Timing: &timing})
	if err != nil {
		t.Fatal(err)
	}
	var recovered simtime.Time
	err = m.RunMain(func(p *machine.Proc) error {
		rt, err := machine.ConnectDMA(p, m, machine.ProtocolOptions{})
		if err != nil {
			return err
		}
		var lost []*offload.Future[int64]
		for v := range int64(4) {
			lost = append(lost, offload.Async(rt, 1, regEcho.Bind(v)))
		}
		m.Cards[0].Kill()
		for _, f := range lost {
			_, _ = f.Get()
		}
		if err := rt.RecoverNode(1); err != nil {
			return err
		}
		recovered = p.Now()
		for v := range int64(4) {
			if got, err := offload.Sync(rt, 1, regEcho.Bind(v)); err != nil || got != v {
				return fmt.Errorf("offload %d after recovery = %d, %v", v, got, err)
			}
		}
		return rt.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}
	issued := map[uint64]simtime.Time{}
	after := 0
	for _, e := range tr.FlowEvents() {
		switch e.Kind {
		case trace.FlowIssue:
			issued[e.ID] = e.T
		case trace.FlowExecute:
			if e.T < recovered {
				continue
			}
			after++
			if at, ok := issued[e.ID]; !ok || at < recovered {
				t.Errorf("the recovered VE executed 0x%x, an offload issued at %v, before the recovery at %v (%v)", e.ID, at, recovered, ok)
			}
		}
	}
	if after != 5 {
		t.Errorf("%d executes after the recovery, want the 4 offloads and the terminate", after)
	}
}
