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
// an attached tracer with flows disarmed changes NOTHING on the wire or on
// the simulated clock (host-side bookkeeping only), and arming flows wraps
// each message in a 12-byte flow frame around the otherwise-identical inner
// bytes — batch frames stay bare, with each entry flow-framed individually.

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
// simulated workload. A tracer without flows must leave the wire bytes and
// the final simulated time exactly as they are with no tracer; any armed
// tracer must have recorded spans, series and SLO latencies; flows frame the
// wire as TestTelemetryFlowsWrapWire's oracle says.
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
		if c.cfg.Flows {
			if len(tr.FlowEvents()) == 0 {
				t.Errorf("%s: no flow events recorded", c.name)
			}
			checkFlowFraming(t, baseWire, wire)
			continue
		}
		if final != baseFinal {
			t.Errorf("%s: final simulated time %v, want %v as with no tracer", c.name, final, baseFinal)
		}
		checkWireIdentical(t, c.name, baseWire, wire)
	}
}

// TestTelemetryDisarmedWireIdentical pins the zero-cost promise on the
// loopback wire, where the node tracers read the wall clock: no tracer and
// a tracer without flows must produce byte-identical message streams.
func TestTelemetryDisarmedWireIdentical(t *testing.T) {
	checkWireIdentical(t, "tracer", runTelemetryWire(t, nil), runTelemetryWire(t, trace.New(trace.Config{})))
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

// TestTelemetryFlowsWrapWire pins the armed-flows framing on loopback.
func TestTelemetryFlowsWrapWire(t *testing.T) {
	checkFlowFraming(t, runTelemetryWire(t, nil), runTelemetryWire(t, trace.New(trace.Config{Flows: true})))
}

// checkFlowFraming is the armed-flows oracle: each non-batch message gains
// exactly a flow header around the same inner bytes, batch frames stay bare
// with each entry flow-framed, and trace IDs are unique.
func checkFlowFraming(t *testing.T, base, flows [][]byte) {
	t.Helper()
	if len(base) != len(flows) {
		t.Fatalf("message counts differ: %d bare, %d with flows", len(base), len(flows))
	}
	seen := map[uint64]bool{}
	noteID := func(i int, id uint64) {
		if id == 0 {
			t.Fatalf("message %d: zero trace ID", i)
		}
		if seen[id] {
			t.Fatalf("message %d: trace ID 0x%x reused", i, id)
		}
		seen[id] = true
	}
	for i := range base {
		if entries, isBatch, err := core.OpenBatchFrame(base[i]); isBatch {
			if err != nil {
				t.Fatalf("message %d: bare batch frame broken: %v", i, err)
			}
			// The armed frame must still be a bare batch frame...
			got, stillBatch, err := core.OpenBatchFrame(flows[i])
			if !stillBatch || err != nil {
				t.Fatalf("message %d: armed batch frame = batch %v, %v", i, stillBatch, err)
			}
			if len(got) != len(entries) {
				t.Fatalf("message %d: entry count %d, want %d", i, len(got), len(entries))
			}
			// ...with each entry flow-framed around the bare entry.
			for j := range entries {
				id, inner, ok := core.OpenFlowFrame(got[j])
				if !ok {
					t.Fatalf("message %d entry %d: not flow-framed", i, j)
				}
				noteID(i, id)
				if !bytes.Equal(inner, entries[j]) {
					t.Fatalf("message %d entry %d: inner bytes differ from bare run", i, j)
				}
			}
			continue
		}
		id, inner, ok := core.OpenFlowFrame(flows[i])
		if !ok {
			t.Fatalf("message %d: not flow-framed with flows armed", i)
		}
		noteID(i, id)
		if len(flows[i]) != len(base[i])+core.FlowHeaderLen {
			t.Fatalf("message %d: length %d, want bare %d + header %d",
				i, len(flows[i]), len(base[i]), core.FlowHeaderLen)
		}
		if !bytes.Equal(inner, base[i]) {
			t.Fatalf("message %d: inner bytes differ from bare run", i)
		}
	}
}
