package conformance_test

import (
	"errors"
	"sync"
	"testing"

	"hamoffload/internal/backend/conformance"
	"hamoffload/internal/backend/locb"
	"hamoffload/internal/backend/tcpb"
	"hamoffload/internal/core"
	"hamoffload/internal/faults"
	"hamoffload/internal/topology"
	"hamoffload/internal/trace"
	"hamoffload/machine"
	"hamoffload/offload"
)

// TestLoopbackConformance runs the contract against the in-process backend.
func TestLoopbackConformance(t *testing.T) {
	hb, tb, err := locb.NewPair(1 << 22)
	if err != nil {
		t.Fatal(err)
	}
	target := core.NewRuntime(tb, "conf-loc-target")
	host := core.NewRuntime(hb, "conf-loc-host")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := target.Serve(); err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	conformance.Exercise(t, host, 1)
	if err := host.Finalize(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// TestTCPConformance runs the contract over real loopback sockets.
func TestTCPConformance(t *testing.T) {
	tgt, err := tcpb.Listen("127.0.0.1:0", 1, 2, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	targetRT := core.NewRuntime(tgt, "conf-tcp-target")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := targetRT.Serve(); err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	hb, err := tcpb.Dial([]string{tgt.Addr()}, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	host := core.NewRuntime(hb, "conf-tcp-host")
	conformance.Exercise(t, host, 1)
	if err := host.Finalize(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// TestSimulatedProtocolConformance runs the contract over both SX-Aurora
// protocols on the simulated machine.
func TestSimulatedProtocolConformance(t *testing.T) {
	for name, connect := range map[string]func(p *machine.Proc, m *machine.Machine) (*offload.Runtime, error){
		"veo": func(p *machine.Proc, m *machine.Machine) (*offload.Runtime, error) {
			return machine.ConnectVEO(p, m, machine.ProtocolOptions{})
		},
		"dma": func(p *machine.Proc, m *machine.Machine) (*offload.Runtime, error) {
			return machine.ConnectDMA(p, m, machine.ProtocolOptions{})
		},
	} {
		t.Run(name, func(t *testing.T) {
			m, err := machine.New(machine.Config{VEs: 2})
			if err != nil {
				t.Fatal(err)
			}
			err = m.RunMain(func(p *machine.Proc) error {
				rt, err := connect(p, m)
				if err != nil {
					return err
				}
				defer func() { _ = rt.Finalize() }()
				conformance.Exercise(t, rt, 1)
				conformance.Exercise(t, rt, 2)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestClusterConformance runs the contract against a remote VE over the
// InfiniBand cluster backend.
func TestClusterConformance(t *testing.T) {
	cl, err := machine.NewCluster(2, machine.Config{VEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	err = cl.RunMain(func(p *machine.Proc) error {
		rt, err := machine.ConnectCluster(p, cl, machine.ProtocolOptions{})
		if err != nil {
			return err
		}
		defer func() { _ = rt.Finalize() }()
		conformance.Exercise(t, rt, 1) // local VE
		conformance.Exercise(t, rt, 2) // remote VE
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAliasingConformanceLoopback drives the zero-copy aliasing contracts on
// the in-process backend.
func TestAliasingConformanceLoopback(t *testing.T) {
	hb, tb, err := locb.NewPair(1 << 22)
	if err != nil {
		t.Fatal(err)
	}
	target := core.NewRuntime(tb, "conf-loc-target")
	host := core.NewRuntime(hb, "conf-loc-host")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := target.Serve(); err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	conformance.ExerciseAliasing(t, host, 1)
	if err := host.Finalize(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// TestAliasingConformanceTCP drives the zero-copy aliasing contracts over real
// sockets.
func TestAliasingConformanceTCP(t *testing.T) {
	tgt, err := tcpb.Listen("127.0.0.1:0", 1, 2, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	targetRT := core.NewRuntime(tgt, "conf-tcp-target")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := targetRT.Serve(); err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	hb, err := tcpb.Dial([]string{tgt.Addr()}, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	host := core.NewRuntime(hb, "conf-tcp-host")
	conformance.ExerciseAliasing(t, host, 1)
	if err := host.Finalize(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// TestAliasingConformanceSimulated drives the zero-copy aliasing contracts on
// both SX-Aurora protocols, where Call parks the proc on the simulated clock
// mid-transfer — the widest window for a retained-buffer bug to surface.
func TestAliasingConformanceSimulated(t *testing.T) {
	for name, connect := range map[string]func(p *machine.Proc, m *machine.Machine) (*offload.Runtime, error){
		"veo": func(p *machine.Proc, m *machine.Machine) (*offload.Runtime, error) {
			return machine.ConnectVEO(p, m, machine.ProtocolOptions{})
		},
		"dma": func(p *machine.Proc, m *machine.Machine) (*offload.Runtime, error) {
			return machine.ConnectDMA(p, m, machine.ProtocolOptions{})
		},
	} {
		t.Run(name, func(t *testing.T) {
			m, err := machine.New(machine.Config{VEs: 2})
			if err != nil {
				t.Fatal(err)
			}
			err = m.RunMain(func(p *machine.Proc) error {
				rt, err := connect(p, m)
				if err != nil {
					return err
				}
				defer func() { _ = rt.Finalize() }()
				conformance.ExerciseAliasing(t, rt, 1)
				conformance.ExerciseAliasing(t, rt, 2)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAliasingConformanceCluster drives the zero-copy aliasing contracts on
// the InfiniBand cluster backend, local and remote.
func TestAliasingConformanceCluster(t *testing.T) {
	cl, err := machine.NewCluster(2, machine.Config{VEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	err = cl.RunMain(func(p *machine.Proc) error {
		rt, err := machine.ConnectCluster(p, cl, machine.ProtocolOptions{})
		if err != nil {
			return err
		}
		defer func() { _ = rt.Finalize() }()
		conformance.ExerciseAliasing(t, rt, 1) // local VE
		conformance.ExerciseAliasing(t, rt, 2) // remote VE
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBatchConformanceLoopback runs the batching contract against the
// in-process backend.
func TestBatchConformanceLoopback(t *testing.T) {
	hb, tb, err := locb.NewPair(1 << 22)
	if err != nil {
		t.Fatal(err)
	}
	target := core.NewRuntime(tb, "conf-loc-target")
	host := core.NewRuntime(hb, "conf-loc-host")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := target.Serve(); err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	conformance.ExerciseBatch(t, host, 1)
	if err := host.Finalize(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// TestBatchConformanceTCP runs the batching contract over real sockets.
func TestBatchConformanceTCP(t *testing.T) {
	tgt, err := tcpb.Listen("127.0.0.1:0", 1, 2, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	targetRT := core.NewRuntime(tgt, "conf-tcp-target")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := targetRT.Serve(); err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	hb, err := tcpb.Dial([]string{tgt.Addr()}, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	host := core.NewRuntime(hb, "conf-tcp-host")
	conformance.ExerciseBatch(t, host, 1)
	if err := host.Finalize(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// TestBatchConformanceSimulated runs the batching contract on both SX-Aurora
// protocols.
func TestBatchConformanceSimulated(t *testing.T) {
	for name, connect := range map[string]func(p *machine.Proc, m *machine.Machine) (*offload.Runtime, error){
		"veo": func(p *machine.Proc, m *machine.Machine) (*offload.Runtime, error) {
			return machine.ConnectVEO(p, m, machine.ProtocolOptions{})
		},
		"dma": func(p *machine.Proc, m *machine.Machine) (*offload.Runtime, error) {
			return machine.ConnectDMA(p, m, machine.ProtocolOptions{})
		},
	} {
		t.Run(name, func(t *testing.T) {
			m, err := machine.New(machine.Config{VEs: 2})
			if err != nil {
				t.Fatal(err)
			}
			err = m.RunMain(func(p *machine.Proc) error {
				rt, err := connect(p, m)
				if err != nil {
					return err
				}
				defer func() { _ = rt.Finalize() }()
				conformance.ExerciseBatch(t, rt, 1)
				conformance.ExerciseBatch(t, rt, 2)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBatchConformanceCluster runs the batching contract on the InfiniBand
// cluster backend, against both the local and the remote VE.
func TestBatchConformanceCluster(t *testing.T) {
	cl, err := machine.NewCluster(2, machine.Config{VEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	err = cl.RunMain(func(p *machine.Proc) error {
		rt, err := machine.ConnectCluster(p, cl, machine.ProtocolOptions{})
		if err != nil {
			return err
		}
		defer func() { _ = rt.Finalize() }()
		conformance.ExerciseBatch(t, rt, 1) // local VE
		conformance.ExerciseBatch(t, rt, 2) // remote VE
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBatchRetryConformanceLoopback pins batching against fault tolerance on
// the in-process backend: injected send faults force whole-frame
// retransmissions, and the dedup window must keep every batched message
// at-most-once.
func TestBatchRetryConformanceLoopback(t *testing.T) {
	hb, tb, err := locb.NewPair(1 << 22)
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.New(&faults.Plan{Seed: 42, Rules: []faults.Rule{
		{Kind: faults.DMAError, Site: faults.SiteConn, Node: 1, AfterOp: 2, Every: 3, Count: 4},
	}})
	hb.SetFaultInjector(inj)
	target := core.NewRuntime(tb, "conf-loc-target")
	host := core.NewRuntime(hb, "conf-loc-host")
	host.SetFaultTolerance(ftPolicy())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := target.Serve(); err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	conformance.ExerciseBatchRetry(t, host, 1, inj)
	if err := host.Finalize(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// TestBatchRetryConformanceSimulated pins batching against fault tolerance
// on the DMA protocol, where injected user-DMA errors and VEOS stalls hit
// frames mid-flight and timed-out frames are retransmitted after the target
// may already have executed them — the dedup window must answer those from
// cache.
func TestBatchRetryConformanceSimulated(t *testing.T) {
	plan := &faults.Plan{Seed: 7, Rules: []faults.Rule{
		{Kind: faults.Stall, Site: faults.SiteVEOS, Node: 0,
			AfterOp: 2, Every: 2, Count: 4, StallFor: 2 * machine.Microsecond},
		{Kind: faults.DMAError, Site: faults.SiteUserDMA, Node: 0,
			AfterOp: 6, Every: 4, Count: 3},
	}}
	m, err := machine.New(machine.Config{VEs: 1, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	err = m.RunMain(func(p *machine.Proc) error {
		rt, err := machine.ConnectDMA(p, m, machine.ProtocolOptions{
			OffloadTimeout: 10 * machine.Millisecond, Retry: ftPolicy(),
		})
		if err != nil {
			return err
		}
		defer func() { _ = rt.Finalize() }()
		conformance.ExerciseBatchRetry(t, rt, 1, m.Timing.Faults)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBackpressureConformanceLoopback saturates the in-process backend far
// past its in-flight capacity.
func TestBackpressureConformanceLoopback(t *testing.T) {
	hb, tb, err := locb.NewPair(1 << 22)
	if err != nil {
		t.Fatal(err)
	}
	target := core.NewRuntime(tb, "conf-bp-loc-target")
	host := core.NewRuntime(hb, "conf-bp-loc-host")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := target.Serve(); err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	conformance.ExerciseBackpressure(t, host, 1)
	if err := host.Finalize(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// TestBackpressureConformanceTCP saturates the socket backend far past its
// in-flight capacity.
func TestBackpressureConformanceTCP(t *testing.T) {
	tgt, err := tcpb.Listen("127.0.0.1:0", 1, 2, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	targetRT := core.NewRuntime(tgt, "conf-bp-tcp-target")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := targetRT.Serve(); err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	hb, err := tcpb.Dial([]string{tgt.Addr()}, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	host := core.NewRuntime(hb, "conf-bp-tcp-host")
	conformance.ExerciseBackpressure(t, host, 1)
	if err := host.Finalize(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// TestBackpressureConformanceSimulated saturates both SX-Aurora protocols,
// whose 8 message slots are the tightest in-flight bound of any backend: 96
// concurrent asyncs force Call to park on the simulated clock until slots
// recycle.
func TestBackpressureConformanceSimulated(t *testing.T) {
	for name, connect := range map[string]func(p *machine.Proc, m *machine.Machine) (*offload.Runtime, error){
		"veo": func(p *machine.Proc, m *machine.Machine) (*offload.Runtime, error) {
			return machine.ConnectVEO(p, m, machine.ProtocolOptions{})
		},
		"dma": func(p *machine.Proc, m *machine.Machine) (*offload.Runtime, error) {
			return machine.ConnectDMA(p, m, machine.ProtocolOptions{})
		},
	} {
		t.Run(name, func(t *testing.T) {
			m, err := machine.New(machine.Config{VEs: 2})
			if err != nil {
				t.Fatal(err)
			}
			err = m.RunMain(func(p *machine.Proc) error {
				rt, err := connect(p, m)
				if err != nil {
					return err
				}
				defer func() { _ = rt.Finalize() }()
				conformance.ExerciseBackpressure(t, rt, 1)
				conformance.ExerciseBackpressure(t, rt, 2)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBackpressureConformanceCluster saturates a local and a remote VE over
// the InfiniBand cluster backend.
func TestBackpressureConformanceCluster(t *testing.T) {
	cl, err := machine.NewCluster(2, machine.Config{VEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	err = cl.RunMain(func(p *machine.Proc) error {
		rt, err := machine.ConnectCluster(p, cl, machine.ProtocolOptions{})
		if err != nil {
			return err
		}
		defer func() { _ = rt.Finalize() }()
		conformance.ExerciseBackpressure(t, rt, 1) // local VE
		conformance.ExerciseBackpressure(t, rt, 2) // remote VE
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestErrorsConformanceLoopback pins error propagation on the in-process
// backend.
func TestErrorsConformanceLoopback(t *testing.T) {
	hb, tb, err := locb.NewPair(1 << 22)
	if err != nil {
		t.Fatal(err)
	}
	target := core.NewRuntime(tb, "conf-loc-target")
	host := core.NewRuntime(hb, "conf-loc-host")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := target.Serve(); err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	conformance.ExerciseErrors(t, host, 1)
	if err := host.Finalize(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// TestErrorsConformanceTCP pins error propagation over real sockets.
func TestErrorsConformanceTCP(t *testing.T) {
	tgt, err := tcpb.Listen("127.0.0.1:0", 1, 2, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	targetRT := core.NewRuntime(tgt, "conf-tcp-target")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := targetRT.Serve(); err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	hb, err := tcpb.Dial([]string{tgt.Addr()}, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	host := core.NewRuntime(hb, "conf-tcp-host")
	conformance.ExerciseErrors(t, host, 1)
	if err := host.Finalize(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// TestErrorsConformanceSimulated pins error propagation on both SX-Aurora
// protocols.
func TestErrorsConformanceSimulated(t *testing.T) {
	for name, connect := range map[string]func(p *machine.Proc, m *machine.Machine) (*offload.Runtime, error){
		"veo": func(p *machine.Proc, m *machine.Machine) (*offload.Runtime, error) {
			return machine.ConnectVEO(p, m, machine.ProtocolOptions{})
		},
		"dma": func(p *machine.Proc, m *machine.Machine) (*offload.Runtime, error) {
			return machine.ConnectDMA(p, m, machine.ProtocolOptions{})
		},
	} {
		t.Run(name, func(t *testing.T) {
			m, err := machine.New(machine.Config{VEs: 1})
			if err != nil {
				t.Fatal(err)
			}
			err = m.RunMain(func(p *machine.Proc) error {
				rt, err := connect(p, m)
				if err != nil {
					return err
				}
				defer func() { _ = rt.Finalize() }()
				conformance.ExerciseErrors(t, rt, 1)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestErrorsConformanceCluster pins error propagation on the InfiniBand
// cluster backend, local and remote.
func TestErrorsConformanceCluster(t *testing.T) {
	cl, err := machine.NewCluster(2, machine.Config{VEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	err = cl.RunMain(func(p *machine.Proc) error {
		rt, err := machine.ConnectCluster(p, cl, machine.ProtocolOptions{})
		if err != nil {
			return err
		}
		defer func() { _ = rt.Finalize() }()
		conformance.ExerciseErrors(t, rt, 1) // local VE
		conformance.ExerciseErrors(t, rt, 2) // remote VE
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// ftPolicy is the retry policy the fault exercises run under.
func ftPolicy() core.FaultTolerance {
	return core.FaultTolerance{
		MaxRetries:  4,
		BackoffBase: 2 * machine.Microsecond,
		BackoffMax:  50 * machine.Microsecond,
	}
}

// TestFaultsConformanceLoopback runs the fault-tolerance contract on the
// in-process backend: op-scheduled send faults, a node kill and a recovery
// with a restarted serve loop.
func TestFaultsConformanceLoopback(t *testing.T) {
	hb, tb, err := locb.NewPair(1 << 22)
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.New(&faults.Plan{Seed: 42, Rules: []faults.Rule{
		{Kind: faults.DMAError, Site: faults.SiteConn, Node: 1, AfterOp: 2, Every: 3, Count: 4},
	}})
	hb.SetFaultInjector(inj)
	target := core.NewRuntime(tb, "conf-loc-target")
	host := core.NewRuntime(hb, "conf-loc-host")
	host.SetFaultTolerance(ftPolicy())

	var wg sync.WaitGroup
	dead := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(dead)
		if err := target.Serve(); !errors.Is(err, core.ErrNodeFailed) {
			t.Errorf("killed Serve = %v (want ErrNodeFailed)", err)
		}
	}()
	conformance.ExerciseFaults(t, host, 1, conformance.FaultHooks{
		Inj: inj,
		Kill: func() error {
			hb.Kill(1)
			<-dead // the old serve loop must be gone before recovery restarts it
			return nil
		},
		Recover: func() error {
			if err := host.RecoverNode(1); err != nil {
				return err
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := target.Serve(); err != nil {
					t.Errorf("Serve after recovery: %v", err)
				}
			}()
			return nil
		},
	})
	if err := host.Finalize(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// TestFaultsConformanceTCP runs the fault-tolerance contract over real
// sockets: send faults are retried, and dropping the connection fails
// in-flight and new offloads with ErrNodeFailed (no recovery — tcpb cannot
// redial).
func TestFaultsConformanceTCP(t *testing.T) {
	tgt, err := tcpb.Listen("127.0.0.1:0", 1, 2, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = core.NewRuntime(tgt, "conf-tcp-target").Serve() // dies with the dropped conn
	}()
	hb, err := tcpb.Dial([]string{tgt.Addr()}, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.New(&faults.Plan{Seed: 42, Rules: []faults.Rule{
		{Kind: faults.DMAError, Site: faults.SiteConn, Node: 1, AfterOp: 2, Every: 3, Count: 4},
	}})
	hb.SetFaultInjector(inj)
	host := core.NewRuntime(hb, "conf-tcp-host")
	host.SetFaultTolerance(ftPolicy())
	conformance.ExerciseFaults(t, host, 1, conformance.FaultHooks{
		Inj:  inj,
		Kill: func() error { return hb.DropConn(1) },
	})
	_ = host.Finalize() // the node is dead; the terminate exchange cannot succeed
	wg.Wait()
}

// TestFaultsConformanceSimulated runs the fault-tolerance contract on both
// SX-Aurora protocols: substrate-level injection from a machine fault plan,
// a VE process crash and machine-level recovery.
func TestFaultsConformanceSimulated(t *testing.T) {
	for name, tc := range map[string]struct {
		rules   []faults.Rule
		connect func(p *machine.Proc, m *machine.Machine) (*offload.Runtime, error)
	}{
		// The VEO protocol rides entirely on privileged DMA, so both the
		// VEOS stalls and the transfer errors hit its hot path; the op
		// offsets keep the errors clear of the (unretried) connect sequence.
		"veo": {
			rules: []faults.Rule{
				{Kind: faults.Stall, Site: faults.SiteVEOS, Node: 0,
					AfterOp: 10, Every: 25, Count: 6, StallFor: 2 * machine.Microsecond},
				{Kind: faults.DMAError, Site: faults.SitePrivDMA, Node: 0,
					AfterOp: 40, Every: 17, Count: 2},
			},
			connect: func(p *machine.Proc, m *machine.Machine) (*offload.Runtime, error) {
				return machine.ConnectVEO(p, m, machine.ProtocolOptions{
					OffloadTimeout: 10 * machine.Millisecond, Retry: ftPolicy(),
				})
			},
		},
		// The DMA protocol touches VEOS only at setup (stalls fire there,
		// harmlessly) and uses user DMA for the VE's message fetches, which
		// redeliver after an injected failure.
		"dma": {
			rules: []faults.Rule{
				{Kind: faults.Stall, Site: faults.SiteVEOS, Node: 0,
					AfterOp: 2, Every: 2, Count: 4, StallFor: 2 * machine.Microsecond},
				{Kind: faults.DMAError, Site: faults.SiteUserDMA, Node: 0,
					AfterOp: 6, Every: 4, Count: 3},
			},
			connect: func(p *machine.Proc, m *machine.Machine) (*offload.Runtime, error) {
				return machine.ConnectDMA(p, m, machine.ProtocolOptions{
					OffloadTimeout: 10 * machine.Millisecond, Retry: ftPolicy(),
				})
			},
		},
	} {
		t.Run(name, func(t *testing.T) {
			plan := &faults.Plan{Seed: 7, Rules: tc.rules}
			m, err := machine.New(machine.Config{VEs: 1, Faults: plan})
			if err != nil {
				t.Fatal(err)
			}
			err = m.RunMain(func(p *machine.Proc) error {
				rt, err := tc.connect(p, m)
				if err != nil {
					return err
				}
				defer func() { _ = rt.Finalize() }()
				conformance.ExerciseFaults(t, rt, 1, conformance.FaultHooks{
					Inj:     m.Timing.Faults,
					Kill:    func() error { m.Cards[0].Kill(); return nil },
					Recover: func() error { return rt.RecoverNode(1) },
				})
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFaultsConformanceCluster runs the fault-tolerance contract on the
// InfiniBand cluster backend: the local VE is killed and recovered; the
// remote VE is killed and stays dead (remote recovery is unsupported).
func TestFaultsConformanceCluster(t *testing.T) {
	plan := &faults.Plan{Seed: 9, Rules: []faults.Rule{
		{Kind: faults.Stall, Site: faults.SiteVEOS, Node: 0,
			AfterOp: 0, Every: 20, Count: 8, StallFor: 2 * machine.Microsecond},
	}}
	cl, err := machine.NewCluster(2, machine.Config{VEs: 1, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	err = cl.RunMain(func(p *machine.Proc) error {
		rt, err := machine.ConnectCluster(p, cl, machine.ProtocolOptions{
			OffloadTimeout: 10 * machine.Millisecond, Retry: ftPolicy(),
		})
		if err != nil {
			return err
		}
		defer func() { _ = rt.Finalize() }()
		conformance.ExerciseFaults(t, rt, 1, conformance.FaultHooks{ // local VE
			Inj:     cl.Nodes[0].Timing.Faults,
			Kill:    func() error { cl.Nodes[0].Cards[0].Kill(); return nil },
			Recover: func() error { return rt.RecoverNode(1) },
		})
		conformance.ExerciseFaults(t, rt, 2, conformance.FaultHooks{ // remote VE
			Inj:  cl.Nodes[1].Timing.Faults,
			Kill: func() error { cl.Nodes[1].Cards[0].Kill(); return nil },
		})
		if err := rt.RecoverNode(2); !errors.Is(err, core.ErrUnsupported) {
			t.Errorf("remote RecoverNode = %v; want core.ErrUnsupported", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// tracedTiming returns a machine timing model with a fresh tracer attached.
func tracedTiming() (*trace.Tracer, *topology.Timing) {
	tr := trace.NewTracer()
	timing := topology.DefaultTiming()
	timing.Tracer = tr
	return tr, &timing
}

// TestTraceConformanceLoopback asserts the wall-clock loopback backend emits
// the mandatory lifecycle spans.
func TestTraceConformanceLoopback(t *testing.T) {
	hb, tb, err := locb.NewPair(1 << 22)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.NewTracer()
	clock := trace.NewWallClock()
	hb.SetTracer(tr, clock)
	tb.SetTracer(tr, clock)
	target := core.NewRuntime(tb, "conf-loc-target")
	target.SetTracer(tr.Node(1, "locb", clock))
	host := core.NewRuntime(hb, "conf-loc-host")
	host.SetTracer(tr.Node(0, "locb", clock))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := target.Serve(); err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	conformance.ExerciseTrace(t, host, 1, tr)
	if err := host.Finalize(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// TestTraceConformanceTCP asserts the socket backend emits the mandatory
// lifecycle spans.
func TestTraceConformanceTCP(t *testing.T) {
	tgt, err := tcpb.Listen("127.0.0.1:0", 1, 2, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.NewTracer()
	clock := trace.NewWallClock()
	tgt.SetTracer(tr, clock)
	targetRT := core.NewRuntime(tgt, "conf-tcp-target")
	targetRT.SetTracer(tr.Node(1, "tcpb", clock))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := targetRT.Serve(); err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	hb, err := tcpb.Dial([]string{tgt.Addr()}, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	hb.SetTracer(tr, clock)
	host := core.NewRuntime(hb, "conf-tcp-host")
	host.SetTracer(tr.Node(0, "tcpb", clock))
	conformance.ExerciseTrace(t, host, 1, tr)
	if err := host.Finalize(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// TestTraceConformanceSimulated asserts both SX-Aurora protocols emit the
// mandatory lifecycle spans.
func TestTraceConformanceSimulated(t *testing.T) {
	for name, connect := range map[string]func(p *machine.Proc, m *machine.Machine) (*offload.Runtime, error){
		"veo": func(p *machine.Proc, m *machine.Machine) (*offload.Runtime, error) {
			return machine.ConnectVEO(p, m, machine.ProtocolOptions{})
		},
		"dma": func(p *machine.Proc, m *machine.Machine) (*offload.Runtime, error) {
			return machine.ConnectDMA(p, m, machine.ProtocolOptions{})
		},
	} {
		t.Run(name, func(t *testing.T) {
			tr, timing := tracedTiming()
			m, err := machine.New(machine.Config{VEs: 1, Timing: timing})
			if err != nil {
				t.Fatal(err)
			}
			err = m.RunMain(func(p *machine.Proc) error {
				rt, err := connect(p, m)
				if err != nil {
					return err
				}
				defer func() { _ = rt.Finalize() }()
				conformance.ExerciseTrace(t, rt, 1, tr)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTraceConformanceCluster asserts the InfiniBand cluster backend emits
// the mandatory lifecycle spans for both local and remote targets.
func TestTraceConformanceCluster(t *testing.T) {
	tr, timing := tracedTiming()
	cl, err := machine.NewCluster(2, machine.Config{VEs: 1, Timing: timing})
	if err != nil {
		t.Fatal(err)
	}
	err = cl.RunMain(func(p *machine.Proc) error {
		rt, err := machine.ConnectCluster(p, cl, machine.ProtocolOptions{})
		if err != nil {
			return err
		}
		defer func() { _ = rt.Finalize() }()
		conformance.ExerciseTrace(t, rt, 1, tr) // local VE
		conformance.ExerciseTrace(t, rt, 2, tr) // remote VE
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestHedgingConformanceLoopback drives the hedged-request contract on the
// in-process backend (wall-clock: hedges fire immediately).
func TestHedgingConformanceLoopback(t *testing.T) {
	hb, tb, err := locb.NewPair(1 << 22)
	if err != nil {
		t.Fatal(err)
	}
	target := core.NewRuntime(tb, "conf-hedge-loc-target")
	host := core.NewRuntime(hb, "conf-hedge-loc-host")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := target.Serve(); err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	conformance.ExerciseHedging(t, host, 1)
	if err := host.Finalize(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// TestHedgingConformanceTCP drives the hedged-request contract over real
// loopback sockets.
func TestHedgingConformanceTCP(t *testing.T) {
	tgt, err := tcpb.Listen("127.0.0.1:0", 1, 2, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	targetRT := core.NewRuntime(tgt, "conf-hedge-tcp-target")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := targetRT.Serve(); err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	hb, err := tcpb.Dial([]string{tgt.Addr()}, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	host := core.NewRuntime(hb, "conf-hedge-tcp-host")
	conformance.ExerciseHedging(t, host, 1)
	if err := host.Finalize(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// TestHedgingConformanceSimulated drives the hedged-request contract over
// both SX-Aurora protocols; hedge delays run on the simulated clock.
func TestHedgingConformanceSimulated(t *testing.T) {
	for name, connect := range map[string]func(p *machine.Proc, m *machine.Machine) (*offload.Runtime, error){
		"veo": func(p *machine.Proc, m *machine.Machine) (*offload.Runtime, error) {
			return machine.ConnectVEO(p, m, machine.ProtocolOptions{})
		},
		"dma": func(p *machine.Proc, m *machine.Machine) (*offload.Runtime, error) {
			return machine.ConnectDMA(p, m, machine.ProtocolOptions{})
		},
	} {
		t.Run(name, func(t *testing.T) {
			m, err := machine.New(machine.Config{VEs: 2})
			if err != nil {
				t.Fatal(err)
			}
			err = m.RunMain(func(p *machine.Proc) error {
				rt, err := connect(p, m)
				if err != nil {
					return err
				}
				defer func() { _ = rt.Finalize() }()
				conformance.ExerciseHedging(t, rt, 1)
				conformance.ExerciseHedging(t, rt, 2)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestHedgingConformanceCluster drives the hedged-request contract against
// a local and a remote VE over the InfiniBand cluster backend.
func TestHedgingConformanceCluster(t *testing.T) {
	cl, err := machine.NewCluster(2, machine.Config{VEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	err = cl.RunMain(func(p *machine.Proc) error {
		rt, err := machine.ConnectCluster(p, cl, machine.ProtocolOptions{})
		if err != nil {
			return err
		}
		defer func() { _ = rt.Finalize() }()
		conformance.ExerciseHedging(t, rt, 1) // local VE
		conformance.ExerciseHedging(t, rt, 2) // remote VE
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGrayFailureConformanceLoopback drives the health-scored scheduling
// contract on the pair-only in-process backend: a single target means the
// policy must fail open rather than starve.
func TestGrayFailureConformanceLoopback(t *testing.T) {
	hb, tb, err := locb.NewPair(1 << 22)
	if err != nil {
		t.Fatal(err)
	}
	target := core.NewRuntime(tb, "conf-gray-loc-target")
	host := core.NewRuntime(hb, "conf-gray-loc-host")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := target.Serve(); err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	conformance.ExerciseGrayFailure(t, host, []core.NodeID{1}, 1)
	if err := host.Finalize(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// TestGrayFailureConformanceTCP drives ejection, routing-around and probe
// re-admission across two socket targets.
func TestGrayFailureConformanceTCP(t *testing.T) {
	tgt1, err := tcpb.Listen("127.0.0.1:0", 1, 3, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	tgt2, err := tcpb.Listen("127.0.0.1:0", 2, 3, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	rt1 := core.NewRuntime(tgt1, "conf-gray-tcp-t1")
	rt2 := core.NewRuntime(tgt2, "conf-gray-tcp-t2")
	var wg sync.WaitGroup
	for _, trt := range []*core.Runtime{rt1, rt2} {
		wg.Add(1)
		go func(trt *core.Runtime) {
			defer wg.Done()
			if err := trt.Serve(); err != nil {
				t.Errorf("Serve: %v", err)
			}
		}(trt)
	}
	hb, err := tcpb.Dial([]string{tgt1.Addr(), tgt2.Addr()}, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	host := core.NewRuntime(hb, "conf-gray-tcp-host")
	conformance.ExerciseGrayFailure(t, host, []core.NodeID{1, 2}, 2)
	if err := host.Finalize(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// TestGrayFailureConformanceSimulated drives the contract over both
// SX-Aurora protocols with three VEs, degrading the middle one.
func TestGrayFailureConformanceSimulated(t *testing.T) {
	for name, connect := range map[string]func(p *machine.Proc, m *machine.Machine) (*offload.Runtime, error){
		"veo": func(p *machine.Proc, m *machine.Machine) (*offload.Runtime, error) {
			return machine.ConnectVEO(p, m, machine.ProtocolOptions{})
		},
		"dma": func(p *machine.Proc, m *machine.Machine) (*offload.Runtime, error) {
			return machine.ConnectDMA(p, m, machine.ProtocolOptions{})
		},
	} {
		t.Run(name, func(t *testing.T) {
			m, err := machine.New(machine.Config{VEs: 3})
			if err != nil {
				t.Fatal(err)
			}
			err = m.RunMain(func(p *machine.Proc) error {
				rt, err := connect(p, m)
				if err != nil {
					return err
				}
				defer func() { _ = rt.Finalize() }()
				conformance.ExerciseGrayFailure(t, rt, []core.NodeID{1, 2, 3}, 2)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestGrayFailureConformanceCluster degrades the remote VE of a two-machine
// cluster: ejection and re-admission must work across the local/remote
// split exactly as on one machine.
func TestGrayFailureConformanceCluster(t *testing.T) {
	cl, err := machine.NewCluster(2, machine.Config{VEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	err = cl.RunMain(func(p *machine.Proc) error {
		rt, err := machine.ConnectCluster(p, cl, machine.ProtocolOptions{})
		if err != nil {
			return err
		}
		defer func() { _ = rt.Finalize() }()
		conformance.ExerciseGrayFailure(t, rt, []core.NodeID{1, 2}, 2) // node 2 is remote
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// forEachBackend runs fn as a subtest on a live application over each of the
// five backends — in the host's execution context, the host runtime
// finalized afterwards. targets are the nodes to exercise (the cluster has a
// local and a remote one); oneWay is false only for the symmetric loopback.
func forEachBackend(t *testing.T, fn func(t *testing.T, rt *core.Runtime, targets []core.NodeID, oneWay bool)) {
	wallClock := func(t *testing.T, host, target core.Backend, oneWay bool) {
		targetRT := core.NewRuntime(target, "conf-each-target")
		rt := core.NewRuntime(host, "conf-each-host")
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := targetRT.Serve(); err != nil {
				t.Errorf("Serve: %v", err)
			}
		}()
		fn(t, rt, []core.NodeID{1}, oneWay)
		if err := rt.Finalize(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
	}
	t.Run("loopback", func(t *testing.T) {
		hb, tb, err := locb.NewPair(1 << 22)
		if err != nil {
			t.Fatal(err)
		}
		wallClock(t, hb, tb, false)
	})
	t.Run("tcp", func(t *testing.T) {
		tgt, err := tcpb.Listen("127.0.0.1:0", 1, 2, 1<<22)
		if err != nil {
			t.Fatal(err)
		}
		hb, err := tcpb.Dial([]string{tgt.Addr()}, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		wallClock(t, hb, tgt, true)
	})
	for name, connect := range map[string]func(*machine.Proc, *machine.Machine, machine.ProtocolOptions) (*offload.Runtime, error){
		"veo": machine.ConnectVEO, "dma": machine.ConnectDMA,
	} {
		t.Run(name, func(t *testing.T) {
			m, err := machine.New(machine.Config{VEs: 1})
			if err != nil {
				t.Fatal(err)
			}
			err = m.RunMain(func(p *machine.Proc) error {
				rt, err := connect(p, m, machine.ProtocolOptions{})
				if err != nil {
					return err
				}
				defer func() { _ = rt.Finalize() }()
				fn(t, rt, []core.NodeID{1}, true)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Run("cluster", func(t *testing.T) {
		cl, err := machine.NewCluster(2, machine.Config{VEs: 1})
		if err != nil {
			t.Fatal(err)
		}
		err = cl.RunMain(func(p *machine.Proc) error {
			rt, err := machine.ConnectCluster(p, cl, machine.ProtocolOptions{})
			if err != nil {
				return err
			}
			defer func() { _ = rt.Finalize() }()
			fn(t, rt, []core.NodeID{1, 2}, true) // local VE, remote VE
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestSurfaceConformance pins the closed Backend surface — clock, message
// size limit, recovery, the host-only/target-only stubs — on all five
// backends.
func TestSurfaceConformance(t *testing.T) {
	forEachBackend(t, func(t *testing.T, rt *core.Runtime, targets []core.NodeID, oneWay bool) {
		for _, target := range targets {
			conformance.ExerciseSurface(t, rt, target, oneWay)
		}
	})
}

// TestBulkConformance runs the bulk-data contract — every element kind,
// sizes across the chunk boundary, borrowed slices — on all five backends.
func TestBulkConformance(t *testing.T) {
	forEachBackend(t, func(t *testing.T, rt *core.Runtime, targets []core.NodeID, _ bool) {
		for _, target := range targets {
			conformance.ExerciseBulk(t, rt, target)
		}
	})
}
