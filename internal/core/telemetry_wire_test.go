package core_test

import (
	"bytes"
	"sync"
	"testing"

	"hamoffload/internal/backend/dmab"
	"hamoffload/internal/backend/locb"
	"hamoffload/internal/core"
	"hamoffload/internal/simtime"
	"hamoffload/internal/topology"
	"hamoffload/internal/trace"
	"hamoffload/machine"
)

// Wire-bytes guards for the observability handle. The promise under test:
// an attached tracer, causal flows armed or not, changes NOTHING on the wire
// or on the simulated clock (host-side bookkeeping only) — an offload's
// trace ID travels beside its message, not in it.

// captureBackend records every host->target wire message before forwarding.
type captureBackend struct {
	core.Backend
	calls *[][]byte
}

func (c *captureBackend) Call(n core.NodeID, msg []byte) (core.Handle, error) {
	*c.calls = append(*c.calls, append([]byte(nil), msg...))
	return c.Backend.Call(n, msg)
}

// wireWorkload is the fixed workload every guard runs: two sync offloads
// plus one three-entry batch frame.
func wireWorkload(host *core.Runtime) error {
	for i := 0; i < 2; i++ {
		if _, err := core.Sync(host, 1, fnEcho.Bind("wire")); err != nil {
			return err
		}
	}
	b := core.NewBatcher(host)
	var futs []*core.Future[string]
	for i := 0; i < 3; i++ {
		futs = append(futs, core.BatchAdd(b, 1, fnEcho.Bind("batched")))
	}
	b.FlushAll()
	_, err := core.GetAll(futs)
	return err
}

// runTelemetryWire runs the workload over loopback with the given tracer
// (nil = off) and returns the captured wire messages in send order.
func runTelemetryWire(t *testing.T, tr *trace.Tracer) [][]byte {
	t.Helper()
	hb, tb, err := locb.NewPair(1 << 24)
	if err != nil {
		t.Fatal(err)
	}
	hb.SetTracer(tr, core.WallClock)
	tb.SetTracer(tr, core.WallClock)
	target := core.NewRuntime(tb, "loopback-target-arch")
	target.SetTracer(tr.Node(1, "locb", core.WallClock))
	var calls [][]byte
	host := core.NewRuntime(&captureBackend{Backend: hb, calls: &calls}, "loopback-host-arch")
	host.SetTracer(tr.Node(0, "locb", core.WallClock))
	host.SetBatching(core.BatchPolicy{MaxMessages: 3})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := target.Serve(); err != nil {
			t.Errorf("target Serve: %v", err)
		}
	}()
	if err := wireWorkload(host); err != nil {
		t.Fatal(err)
	}
	if err := host.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	wg.Wait()
	return calls
}

// runSimulatedWire runs the workload over the DMA protocol with tr as the
// machine's tracer (nil = off) and returns the captured wire messages and
// the simulated time the workload finished at.
func runSimulatedWire(t *testing.T, tr *trace.Tracer) ([][]byte, simtime.Time) {
	t.Helper()
	timing := topology.DefaultTiming()
	timing.Tracer = tr
	m, err := machine.New(machine.Config{VEs: 1, Timing: &timing})
	if err != nil {
		t.Fatal(err)
	}
	var calls [][]byte
	var final simtime.Time
	err = m.RunMain(func(p *machine.Proc) error {
		b, err := dmab.Connect(p, m.Cards, dmab.Options{})
		if err != nil {
			return err
		}
		host := core.NewRuntime(&captureBackend{Backend: b, calls: &calls}, "x86_64-vh")
		host.SetTracer(tr.Node(0, "dmab", p))
		host.SetBatching(core.BatchPolicy{MaxMessages: 3})
		defer func() { _ = host.Finalize() }()
		if err := wireWorkload(host); err != nil {
			return err
		}
		final = p.Now()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return calls, final
}

// TestTracerArming compares the three observability configurations on one
// simulated workload. A tracer, with or without flows, must leave the wire
// bytes and the final simulated time exactly as they are with no tracer;
// any armed tracer must have recorded spans, series and SLO latencies; and
// with flows every issued offload, batched or not, executes once on its
// target under its own trace ID.
func TestTracerArming(t *testing.T) {
	baseWire, baseFinal := runSimulatedWire(t, nil)
	for _, c := range []struct {
		name string
		cfg  trace.Config
	}{
		{"tracer", trace.Config{}},
		{"tracer+flows", trace.Config{Flows: true}},
	} {
		tr := trace.New(c.cfg)
		wire, final := runSimulatedWire(t, tr)
		if tr.Len() == 0 || len(tr.Series()) == 0 || tr.SLOReport().N == 0 {
			t.Errorf("%s: %d spans, %d series, %d SLO observations; want all non-zero",
				c.name, tr.Len(), len(tr.Series()), tr.SLOReport().N)
		}
		if final != baseFinal {
			t.Errorf("%s: final simulated time %v, want %v as with no tracer", c.name, final, baseFinal)
		}
		checkWireIdentical(t, c.name, baseWire, wire)
		if c.cfg.Flows {
			checkExecutedOnce(t, c.name, tr.FlowEvents())
		}
	}
}

// checkExecutedOnce fails unless every issued offload of events executed
// exactly once, on node 1, and every execute belongs to an issued offload.
func checkExecutedOnce(t *testing.T, name string, events []trace.FlowEvent) {
	t.Helper()
	issued, executed := map[uint64]bool{}, map[uint64]int{}
	for _, e := range events {
		switch e.Kind {
		case trace.FlowIssue:
			issued[e.ID] = true
		case trace.FlowExecute:
			if e.Node != 1 {
				t.Errorf("%s: offload 0x%x executed on node %d", name, e.ID, e.Node)
			}
			executed[e.ID]++
		}
	}
	if len(issued) == 0 {
		t.Fatalf("%s: no offload issued", name)
	}
	for id := range issued {
		if executed[id] != 1 {
			t.Errorf("%s: offload 0x%x executed %d times, want once", name, id, executed[id])
		}
	}
	for id := range executed {
		if !issued[id] {
			t.Errorf("%s: execute under 0x%x, which no offload issued", name, id)
		}
	}
}

// TestTelemetryDisarmedWireIdentical pins the zero-cost promise on the
// loopback wire, where the node tracers read the wall clock: no tracer and
// a tracer without flows must produce byte-identical message streams.
func TestTelemetryDisarmedWireIdentical(t *testing.T) {
	checkWireIdentical(t, "tracer", runTelemetryWire(t, nil), runTelemetryWire(t, trace.New(trace.Config{})))
}

// On loopback too, armed flows leave the wire alone, and locb carries each
// message's trace IDs from its Call to the target's Dispatch.
func TestLoopbackFlowsLeaveTheWire(t *testing.T) {
	tr := trace.New(trace.Config{Flows: true})
	checkWireIdentical(t, "tracer+flows", runTelemetryWire(t, nil), runTelemetryWire(t, tr))
	checkExecutedOnce(t, "tracer+flows", tr.FlowEvents())
}

// checkWireIdentical fails unless got is message for message the stream
// base recorded with no tracer.
func checkWireIdentical(t *testing.T, name string, base, got [][]byte) {
	t.Helper()
	if len(got) != len(base) {
		t.Fatalf("%s: %d messages, want %d as with no tracer", name, len(got), len(base))
	}
	for i := range base {
		if !bytes.Equal(got[i], base[i]) {
			t.Errorf("%s: message %d differs from the run with no tracer", name, i)
		}
	}
}
