package conformance_test

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"hamoffload/internal/backend/conformance"
	"hamoffload/internal/backend/locb"
	"hamoffload/internal/backend/mpib"
	"hamoffload/internal/backend/ring"
	"hamoffload/internal/backend/tcpb"
	"hamoffload/internal/core"
	"hamoffload/internal/faults"
	"hamoffload/internal/simtime"
	"hamoffload/internal/topology"
	"hamoffload/internal/trace"
	"hamoffload/machine"
	"hamoffload/offload"
)

// The backend table. Every conformance test below is one exercise run on a
// live application over one or more of the five backends; this is the one
// place that knows how each of them is brought up, broken and torn down —
// and so the one place a harness (tie-break seeds, invariant checks) wraps.
// One such check runs after every exercise that arms no faults: the
// application is back at rest (conformance.Quiescence).

// setup holds the few knobs the exercises vary.
type setup struct {
	// ves is the number of targets: VEs on the simulated machine, listening
	// sockets for tcp. 0 means 1. The loopback is always a pair and the
	// cluster always one VE on each of two machines.
	ves int
	// opts connects the simulated backends; opts.Retry also arms the host
	// runtime of the wall-clock ones.
	opts machine.ProtocolOptions
	// plans is the fault plan per backend name — sites differ by substrate.
	plans map[string]*faults.Plan
	// traced attaches a fresh tracer, handed on as world.tracer.
	traced bool
}

// world is a live application as an exercise sees it, in the host's
// execution context. The host runtime is finalized when the exercise returns.
type world struct {
	rt *core.Runtime
	// targets are the nodes to exercise (the cluster has a local and a
	// remote one).
	targets []core.NodeID
	// oneWay is false only for the symmetric loopback.
	oneWay bool
	tracer *trace.Tracer
	// hooks returns one target's injector, its fail-stop and — where the
	// backend can — its recovery.
	hooks func(core.NodeID) conformance.FaultHooks
	// handles counts the backend's open slot-ring handles (nil: it has
	// none); heaps are the nodes' memories.
	handles func() int
	heaps   []conformance.LiveAllocator
}

// run hands the freshly connected w to fn and, when the setup arms no
// faults, checks that fn left the application at rest.
func run(t *testing.T, s setup, w world, fn func(*testing.T, world)) {
	check := conformance.Quiescence(w.rt, w.handles, w.heaps...)
	fn(t, w)
	if s.plans == nil {
		check(t)
	}
}

// heapsOf are the wall-clock backends' node memories, each a core.Heap.
func heapsOf(mems ...core.LocalMemory) []conformance.LiveAllocator {
	out := make([]conformance.LiveAllocator, len(mems))
	for i, m := range mems {
		out[i] = m.(*core.Heap)
	}
	return out
}

// backends brings up the application of each backend, by subtest name.
var backends = map[string]func(*testing.T, setup, func(*testing.T, world)){
	"loopback": loopback,
	"tcp":      tcp,
	"veo": func(t *testing.T, s setup, fn func(*testing.T, world)) {
		simulated(t, "veo", false, s, fn)
	},
	"dma": func(t *testing.T, s setup, fn func(*testing.T, world)) {
		simulated(t, "dma", true, s, fn)
	},
	"cluster": cluster,
}

// forEachBackend runs fn as a subtest per named backend — all five when none
// is named.
func forEachBackend(t *testing.T, s setup, fn func(*testing.T, world), names ...string) {
	if len(names) == 0 {
		names = []string{"loopback", "tcp", "veo", "dma", "cluster"}
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) { backends[name](t, s, fn) })
	}
}

// bothProtocols runs fn on the two SX-Aurora protocols of the simulated
// machine.
func bothProtocols(t *testing.T, s setup, fn func(*testing.T, world)) {
	forEachBackend(t, s, fn, "veo", "dma")
}

// perTarget adapts a single-target exercise to a world.
func perTarget(exercise func(conformance.Reporter, *core.Runtime, core.NodeID)) func(*testing.T, world) {
	return func(t *testing.T, w world) {
		for _, target := range w.targets {
			exercise(t, w.rt, target)
		}
	}
}

// serving runs rt's message loop in the background and delivers its result.
func serving(rt *core.Runtime) <-chan error {
	done := make(chan error, 1)
	go func() { done <- rt.Serve() }()
	return done
}

// wallTracer is a fresh tracer and its wall clock, when the setup asks for one.
func wallTracer(s setup) (*trace.Tracer, trace.Clock) {
	if !s.traced {
		return nil, nil
	}
	return trace.NewTracer(), wallClock{start: time.Now()}
}

// wallClock maps real elapsed time since start onto the simulated picosecond
// scale, so the wall-clock backends' spans share the export machinery with
// the simulated ones.
type wallClock struct{ start time.Time }

func (w wallClock) Now() simtime.Time {
	return simtime.Time(time.Since(w.start).Nanoseconds() * int64(simtime.Nanosecond))
}

func loopback(t *testing.T, s setup, fn func(*testing.T, world)) {
	hb, tb, err := locb.NewPair(1 << 22)
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.New(s.plans["loopback"])
	hb.SetFaultInjector(inj)
	target := core.NewRuntime(tb, "conf-loc-target")
	host := core.NewRuntime(hb, "conf-loc-host")
	host.SetFaultTolerance(s.opts.Retry)
	tr, clock := wallTracer(s)
	if tr != nil {
		hb.SetTracer(tr, clock)
		tb.SetTracer(tr, clock)
		target.SetTracer(tr.Node(1, "locb", clock))
		host.SetTracer(tr.Node(0, "locb", clock))
	}
	served := serving(target)
	run(t, s, world{rt: host, targets: []core.NodeID{1}, tracer: tr, heaps: heapsOf(hb.Memory(), tb.Memory()),
		hooks: func(core.NodeID) conformance.FaultHooks {
			return conformance.FaultHooks{
				Inj: inj,
				Kill: func() error {
					hb.Kill(1)
					// The old serve loop must be gone before recovery restarts it.
					err := <-served
					served = nil
					if !errors.Is(err, core.ErrNodeFailed) {
						return fmt.Errorf("killed Serve = %v (want ErrNodeFailed)", err)
					}
					return nil
				},
				Recover: func() error {
					if err := host.RecoverNode(1); err != nil {
						return err
					}
					served = serving(target)
					return nil
				},
			}
		}}, fn)
	if err := host.Finalize(); err != nil {
		t.Fatal(err)
	}
	if served == nil {
		t.Fatal("the target was killed and never recovered")
	}
	if err := <-served; err != nil {
		t.Errorf("Serve: %v", err)
	}
}

func tcp(t *testing.T, s setup, fn func(*testing.T, world)) {
	n := max(s.ves, 1)
	tr, clock := wallTracer(s)
	var (
		addrs   []string
		targets []core.NodeID
		served  []<-chan error
		mems    []core.LocalMemory
	)
	for i := 1; i <= n; i++ {
		tgt, err := tcpb.Listen("127.0.0.1:0", i, n+1, 1<<22)
		if err != nil {
			t.Fatal(err)
		}
		targetRT := core.NewRuntime(tgt, "conf-tcp-target")
		if tr != nil {
			tgt.SetTracer(tr, clock)
			targetRT.SetTracer(tr.Node(i, "tcpb", clock))
		}
		addrs, targets, served = append(addrs, tgt.Addr()), append(targets, core.NodeID(i)), append(served, serving(targetRT))
		mems = append(mems, tgt.Memory())
	}
	hb, err := tcpb.Dial(addrs, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.New(s.plans["tcp"])
	hb.SetFaultInjector(inj)
	host := core.NewRuntime(hb, "conf-tcp-host")
	host.SetFaultTolerance(s.opts.Retry)
	if tr != nil {
		hb.SetTracer(tr, clock)
		host.SetTracer(tr.Node(0, "tcpb", clock))
	}
	// tcpb cannot redial: a dropped node stays dead, its serve loop dies with
	// the connection and the terminate exchange cannot succeed.
	dropped := false
	run(t, s, world{rt: host, targets: targets, oneWay: true, tracer: tr, heaps: heapsOf(append(mems, hb.Memory())...),
		hooks: func(node core.NodeID) conformance.FaultHooks {
			return conformance.FaultHooks{Inj: inj, Kill: func() error {
				dropped = true
				return hb.DropConn(node)
			}}
		}}, fn)
	if err := host.Finalize(); err != nil && !dropped {
		t.Fatal(err)
	}
	for _, ch := range served {
		if err := <-ch; err != nil && !dropped {
			t.Errorf("Serve: %v", err)
		}
	}
}

// simTiming is the machine timing model, with a fresh tracer when asked for.
func simTiming(s setup) (*trace.Tracer, *topology.Timing) {
	if !s.traced {
		return nil, nil
	}
	tr := trace.NewTracer()
	timing := topology.DefaultTiming()
	timing.Tracer = tr
	return tr, &timing
}

// simulated is one SX-Aurora protocol (dma, else VEO) on a simulated machine
// of s.ves VEs.
func simulated(t *testing.T, name string, dma bool, s setup, fn func(*testing.T, world)) {
	tr, timing := simTiming(s)
	sim := machine.World{Config: machine.Config{VEs: max(s.ves, 1), Faults: s.plans[name], Timing: timing},
		DMA: dma, Options: s.opts}
	_, err := sim.Run(func(_ *machine.Proc, m *machine.Machine, rt *offload.Runtime) error {
		w := world{rt: rt, oneWay: true, tracer: tr,
			hooks: func(node core.NodeID) conformance.FaultHooks {
				return conformance.FaultHooks{
					Inj:     m.Timing.Faults,
					Kill:    func() error { m.Cards[node-1].Kill(); return nil },
					Recover: func() error { return rt.RecoverNode(node) },
				}
			},
			handles: rt.Backend().(*ring.Host).OpenHandles,
			heaps:   machineHeaps(m),
		}
		for i := range m.Cards {
			w.targets = append(w.targets, core.NodeID(i+1))
		}
		run(t, s, w, fn)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// machineHeaps are a simulated machine's host memory and its VEs'.
func machineHeaps(m *machine.Machine) []conformance.LiveAllocator {
	heaps := []conformance.LiveAllocator{m.Host}
	for _, c := range m.Cards {
		heaps = append(heaps, c.Mem)
	}
	return heaps
}

// cluster is two machines of one VE each on the InfiniBand fabric: node 1 is
// the local VE, node 2 the remote one, which cannot be recovered.
func cluster(t *testing.T, s setup, fn func(*testing.T, world)) {
	tr, timing := simTiming(s)
	cl, err := machine.NewCluster(2, machine.Config{VEs: 1, Faults: s.plans["cluster"], Timing: timing})
	if err != nil {
		t.Fatal(err)
	}
	err = cl.RunMain(func(p *machine.Proc) error {
		rt, err := machine.ConnectCluster(p, cl, s.opts)
		if err != nil {
			return err
		}
		defer func() { _ = rt.Finalize() }()
		heaps := append(machineHeaps(cl.Nodes[0]), machineHeaps(cl.Nodes[1])...)
		run(t, s, world{rt: rt, targets: []core.NodeID{1, 2}, oneWay: true, tracer: tr,
			handles: rt.Backend().(*mpib.Host).OpenHandles, heaps: heaps,
			hooks: func(node core.NodeID) conformance.FaultHooks {
				m := cl.Nodes[node-1]
				h := conformance.FaultHooks{
					Inj:  m.Timing.Faults,
					Kill: func() error { m.Cards[0].Kill(); return nil },
				}
				if node == 1 {
					h.Recover = func() error { return rt.RecoverNode(1) }
				}
				return h
			}}, fn)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The basic contract. The simulated machine has two VEs so that a second
// target is exercised on the same connection.

func TestLoopbackConformance(t *testing.T) { loopback(t, setup{}, perTarget(conformance.Exercise)) }
func TestTCPConformance(t *testing.T)      { tcp(t, setup{}, perTarget(conformance.Exercise)) }
func TestClusterConformance(t *testing.T)  { cluster(t, setup{}, perTarget(conformance.Exercise)) }
func TestSimulatedProtocolConformance(t *testing.T) {
	bothProtocols(t, setup{ves: 2}, perTarget(conformance.Exercise))
}

// recorder is a Reporter that keeps what it is told.
type recorder []string

func (r *recorder) Errorf(format string, args ...any) { *r = append(*r, fmt.Sprintf(format, args...)) }

var leakNop = core.NewFunc0[int64]("conformance_test.leak_nop",
	func(*core.Ctx) (int64, error) { return 7, nil })

// The leak check catches a leak: an Async future left unharvested holds its
// call open, and an Allocate without Free leaves a VE heap one allocation
// over its count at connect. Each is reported (the future's slot-ring handle
// may be too); once both are cleaned up the check is quiet again, and so is
// run's own.
func TestQuiescenceCatchesLeaks(t *testing.T) {
	bothProtocols(t, setup{}, func(t *testing.T, w world) {
		check := conformance.Quiescence(w.rt, w.handles, w.heaps...)
		ve := w.heaps[1] // the target's memory; heaps[0] is the host's
		atConnect := ve.LiveAllocs()
		fut := core.Async(w.rt, w.targets[0], leakNop.Bind())
		buf, err := core.Allocate[float64](w.rt, w.targets[0], 8)
		if err != nil {
			t.Fatal(err)
		}
		if n := w.rt.OpenCalls(); n != 1 {
			t.Errorf("OpenCalls() = %d with one future unharvested, want 1", n)
		}
		var got recorder
		check(&got)
		for _, want := range []string{"1 calls taken and not back on the free list",
			fmt.Sprintf("heap 1 holds %d live allocations, %d at connect", atConnect+1, atConnect)} {
			if !slices.ContainsFunc(got, func(msg string) bool { return strings.Contains(msg, want) }) {
				t.Errorf("leak check reported %q, want a report containing %q", got, want)
			}
		}

		if v, err := fut.Get(); err != nil || v != 7 {
			t.Errorf("leaked future = %d, %v", v, err)
		}
		if err := core.Free(w.rt, buf); err != nil {
			t.Error(err)
		}
		got = nil
		if check(&got); len(got) != 0 {
			t.Errorf("leak check after cleanup reported %q", got)
		}
	})
}

// The zero-copy aliasing contracts. On the simulated protocols Call parks the
// proc on the simulated clock mid-transfer — the widest window for a
// retained-buffer bug to surface.

func TestAliasingConformanceLoopback(t *testing.T) {
	loopback(t, setup{}, perTarget(conformance.ExerciseAliasing))
}
func TestAliasingConformanceTCP(t *testing.T) {
	tcp(t, setup{}, perTarget(conformance.ExerciseAliasing))
}
func TestAliasingConformanceSimulated(t *testing.T) {
	bothProtocols(t, setup{ves: 2}, perTarget(conformance.ExerciseAliasing))
}
func TestAliasingConformanceCluster(t *testing.T) {
	cluster(t, setup{}, perTarget(conformance.ExerciseAliasing))
}

// The batching contract.

func TestBatchConformanceLoopback(t *testing.T) {
	loopback(t, setup{}, perTarget(conformance.ExerciseBatch))
}
func TestBatchConformanceTCP(t *testing.T) { tcp(t, setup{}, perTarget(conformance.ExerciseBatch)) }
func TestBatchConformanceSimulated(t *testing.T) {
	bothProtocols(t, setup{ves: 2}, perTarget(conformance.ExerciseBatch))
}
func TestBatchConformanceCluster(t *testing.T) {
	cluster(t, setup{}, perTarget(conformance.ExerciseBatch))
}

// Backpressure: 96 concurrent asyncs, far past any backend's in-flight
// capacity. The SX-Aurora protocols' 8 message slots are the tightest bound:
// Call parks on the simulated clock until slots recycle.

func TestBackpressureConformanceLoopback(t *testing.T) {
	loopback(t, setup{}, perTarget(conformance.ExerciseBackpressure))
}
func TestBackpressureConformanceTCP(t *testing.T) {
	tcp(t, setup{}, perTarget(conformance.ExerciseBackpressure))
}
func TestBackpressureConformanceSimulated(t *testing.T) {
	bothProtocols(t, setup{ves: 2}, perTarget(conformance.ExerciseBackpressure))
}
func TestBackpressureConformanceCluster(t *testing.T) {
	cluster(t, setup{}, perTarget(conformance.ExerciseBackpressure))
}

// Error propagation.

func TestErrorsConformanceLoopback(t *testing.T) {
	loopback(t, setup{}, perTarget(conformance.ExerciseErrors))
}
func TestErrorsConformanceTCP(t *testing.T) { tcp(t, setup{}, perTarget(conformance.ExerciseErrors)) }
func TestErrorsConformanceSimulated(t *testing.T) {
	bothProtocols(t, setup{}, perTarget(conformance.ExerciseErrors))
}
func TestErrorsConformanceCluster(t *testing.T) {
	cluster(t, setup{}, perTarget(conformance.ExerciseErrors))
}

// ftPolicy is the retry policy the fault exercises run under.
func ftPolicy() core.FaultTolerance {
	return core.FaultTolerance{
		MaxRetries:  4,
		BackoffBase: 2 * machine.Microsecond,
		BackoffMax:  50 * machine.Microsecond,
	}
}

// faulty arms fault tolerance and, per backend, the injection its substrate
// can take.
func faulty() setup {
	conn := &faults.Plan{Seed: 42, Rules: []faults.Rule{
		{Kind: faults.DMAError, Site: faults.SiteConn, Node: 1, AfterOp: 2, Every: 3, Count: 4},
	}}
	return setup{
		opts: machine.ProtocolOptions{OffloadTimeout: 10 * machine.Millisecond, Retry: ftPolicy()},
		plans: map[string]*faults.Plan{
			// Op-scheduled send faults.
			"loopback": conn,
			"tcp":      conn,
			// The VEO protocol rides entirely on privileged DMA, so both the
			// VEOS stalls and the transfer errors hit its hot path; the op
			// offsets keep the errors clear of the (unretried) connect
			// sequence.
			"veo": {Seed: 7, Rules: []faults.Rule{
				{Kind: faults.Stall, Site: faults.SiteVEOS, Node: 0,
					AfterOp: 10, Every: 25, Count: 6, StallFor: 2 * machine.Microsecond},
				{Kind: faults.DMAError, Site: faults.SitePrivDMA, Node: 0,
					AfterOp: 40, Every: 17, Count: 2},
			}},
			// The DMA protocol touches VEOS only at setup (stalls fire there,
			// harmlessly) and uses user DMA for the VE's message fetches,
			// which redeliver after an injected failure.
			"dma": {Seed: 7, Rules: []faults.Rule{
				{Kind: faults.Stall, Site: faults.SiteVEOS, Node: 0,
					AfterOp: 2, Every: 2, Count: 4, StallFor: 2 * machine.Microsecond},
				{Kind: faults.DMAError, Site: faults.SiteUserDMA, Node: 0,
					AfterOp: 6, Every: 4, Count: 3},
			}},
			"cluster": {Seed: 9, Rules: []faults.Rule{
				{Kind: faults.Stall, Site: faults.SiteVEOS, Node: 0,
					AfterOp: 0, Every: 20, Count: 8, StallFor: 2 * machine.Microsecond},
			}},
		},
	}
}

// Batching against fault tolerance: injected faults force whole-frame
// retransmissions — on the DMA protocol, of frames the target may already
// have executed — and the dedup window must keep every batched message
// at-most-once, answering those from cache.

func exerciseBatchRetry(t *testing.T, w world) {
	conformance.ExerciseBatchRetry(t, w.rt, 1, w.hooks(1).Inj)
}

func TestBatchRetryConformanceLoopback(t *testing.T) { loopback(t, faulty(), exerciseBatchRetry) }
func TestBatchRetryConformanceSimulated(t *testing.T) {
	backends["dma"](t, faulty(), exerciseBatchRetry)
}

// The fault-tolerance contract: injected transient faults are retried; a
// killed target fails in-flight and new offloads with ErrNodeFailed; where
// the backend can recover the node (loopback restarts its serve loop, the
// simulated machine its VE process, the cluster its local VE) offloads work
// again afterwards.

func exerciseFaults(t *testing.T, w world) {
	for _, target := range w.targets {
		conformance.ExerciseFaults(t, w.rt, target, w.hooks(target))
	}
}

func TestFaultsConformanceLoopback(t *testing.T)  { loopback(t, faulty(), exerciseFaults) }
func TestFaultsConformanceTCP(t *testing.T)       { tcp(t, faulty(), exerciseFaults) }
func TestFaultsConformanceSimulated(t *testing.T) { bothProtocols(t, faulty(), exerciseFaults) }
func TestFaultsConformanceCluster(t *testing.T) {
	cluster(t, faulty(), func(t *testing.T, w world) {
		exerciseFaults(t, w)
		if err := w.rt.RecoverNode(2); !errors.Is(err, core.ErrUnsupported) {
			t.Errorf("remote RecoverNode = %v; want core.ErrUnsupported", err)
		}
	})
}

// The mandatory lifecycle spans.

func exerciseTrace(t *testing.T, w world) {
	for _, target := range w.targets {
		conformance.ExerciseTrace(t, w.rt, target, w.tracer)
	}
}

func TestTraceConformanceLoopback(t *testing.T) { loopback(t, setup{traced: true}, exerciseTrace) }
func TestTraceConformanceTCP(t *testing.T)      { tcp(t, setup{traced: true}, exerciseTrace) }
func TestTraceConformanceSimulated(t *testing.T) {
	bothProtocols(t, setup{traced: true}, exerciseTrace)
}
func TestTraceConformanceCluster(t *testing.T) { cluster(t, setup{traced: true}, exerciseTrace) }

// The hedged-request contract. Hedge delays run on the backend's clock: the
// wall-clock backends hedge immediately.

func TestHedgingConformanceLoopback(t *testing.T) {
	loopback(t, setup{}, perTarget(conformance.ExerciseHedging))
}
func TestHedgingConformanceTCP(t *testing.T) {
	tcp(t, setup{}, perTarget(conformance.ExerciseHedging))
}
func TestHedgingConformanceSimulated(t *testing.T) {
	bothProtocols(t, setup{ves: 2}, perTarget(conformance.ExerciseHedging))
}
func TestHedgingConformanceCluster(t *testing.T) {
	cluster(t, setup{}, perTarget(conformance.ExerciseHedging))
}

// Health-scored scheduling: ejection of a degraded target, routing around it
// and probe re-admission. The middle target is the one degraded — the remote
// VE on the cluster; on the pair-only loopback the single target means the
// policy must fail open rather than starve.

func exerciseGrayFailure(t *testing.T, w world) {
	conformance.ExerciseGrayFailure(t, w.rt, w.targets, w.targets[len(w.targets)/2])
}

func TestGrayFailureConformanceLoopback(t *testing.T) { loopback(t, setup{}, exerciseGrayFailure) }
func TestGrayFailureConformanceTCP(t *testing.T)      { tcp(t, setup{ves: 2}, exerciseGrayFailure) }
func TestGrayFailureConformanceSimulated(t *testing.T) {
	bothProtocols(t, setup{ves: 3}, exerciseGrayFailure)
}
func TestGrayFailureConformanceCluster(t *testing.T) { cluster(t, setup{}, exerciseGrayFailure) }

// TestSurfaceConformance pins the closed Backend surface — clock, message
// size limit, recovery, the host-only/target-only stubs — on all five
// backends.
func TestSurfaceConformance(t *testing.T) {
	forEachBackend(t, setup{}, func(t *testing.T, w world) {
		for _, target := range w.targets {
			conformance.ExerciseSurface(t, w.rt, target, w.oneWay)
		}
	})
}

// TestBulkConformance runs the bulk-data contract — every element kind,
// sizes across the chunk boundary, borrowed slices — on all five backends.
func TestBulkConformance(t *testing.T) {
	forEachBackend(t, setup{}, perTarget(conformance.ExerciseBulk))
}
