package core_test

import (
	"bytes"
	"sync"
	"testing"

	"hamoffload/internal/backend/locb"
	"hamoffload/internal/core"
	"hamoffload/internal/telemetry"
)

// Wire-bytes guards for the telemetry integration. The promise under test:
// an attached collector with flows disarmed changes NOTHING on the wire
// (host-side bookkeeping only), and arming flows wraps each message in a
// 12-byte flow frame around the otherwise-identical inner bytes — batch
// frames stay bare, with each entry flow-framed individually.

// captureBackend records every host->target wire message before forwarding.
type captureBackend struct {
	core.Backend
	calls *[][]byte
}

func (c *captureBackend) Call(n core.NodeID, msg []byte) (core.Handle, error) {
	*c.calls = append(*c.calls, append([]byte(nil), msg...))
	return c.Backend.Call(n, msg)
}

// runTelemetryWire runs a fixed workload — two sync offloads plus one
// three-entry batch frame — over loopback with the given collector (nil =
// telemetry off) and returns the captured wire messages in send order.
func runTelemetryWire(t *testing.T, col *telemetry.Collector) [][]byte {
	t.Helper()
	hb, tb, err := locb.NewPair(1 << 24)
	if err != nil {
		t.Fatal(err)
	}
	target := core.NewRuntime(tb, "loopback-target-arch")
	target.SetTelemetry(col)
	var calls [][]byte
	host := core.NewRuntime(&captureBackend{Backend: hb, calls: &calls}, "loopback-host-arch")
	host.SetTelemetry(col)
	host.SetBatching(core.BatchPolicy{MaxMessages: 3})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := target.Serve(); err != nil {
			t.Errorf("target Serve: %v", err)
		}
	}()
	for i := 0; i < 2; i++ {
		if _, err := core.Sync(host, 1, fnEcho.Bind("wire")); err != nil {
			t.Fatalf("Sync: %v", err)
		}
	}
	b := core.NewBatcher(host)
	var futs []*core.Future[string]
	for i := 0; i < 3; i++ {
		futs = append(futs, core.BatchAdd(b, 1, fnEcho.Bind("batched")))
	}
	b.FlushAll()
	if _, err := core.GetAll(futs); err != nil {
		t.Fatalf("GetAll: %v", err)
	}
	if err := host.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	wg.Wait()
	return calls
}

// TestTelemetryDisarmedWireIdentical pins the zero-cost promise on the
// wire: no collector and a collector without flows must produce
// byte-identical message streams.
func TestTelemetryDisarmedWireIdentical(t *testing.T) {
	base := runTelemetryWire(t, nil)
	disarmed := runTelemetryWire(t, telemetry.New(telemetry.Config{}))
	if len(base) != len(disarmed) {
		t.Fatalf("message counts differ: %d without telemetry, %d with disarmed collector",
			len(base), len(disarmed))
	}
	for i := range base {
		if !bytes.Equal(base[i], disarmed[i]) {
			t.Fatalf("message %d differs with a disarmed collector attached", i)
		}
	}
}

// TestTelemetryFlowsWrapWire pins the armed-flows framing: each non-batch
// message gains exactly a flow header around the same inner bytes, batch
// frames stay bare with each entry flow-framed, and trace IDs are unique.
func TestTelemetryFlowsWrapWire(t *testing.T) {
	base := runTelemetryWire(t, nil)
	flows := runTelemetryWire(t, telemetry.New(telemetry.Config{Flows: true}))
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
