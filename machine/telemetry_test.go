package machine_test

import (
	"testing"

	"hamoffload/internal/core"
	"hamoffload/internal/simtime"
	"hamoffload/internal/topology"
	"hamoffload/internal/trace"
	"hamoffload/machine"
	"hamoffload/offload"
)

// Zero-cost guard for the tracer at the machine level: a tracer with flows
// disarmed does only host-side bookkeeping, so the simulated run must end
// at exactly the same time as the same run without a tracer. (Arming flows
// adds 12 wire bytes per message and is a deliberate, deterministic timing
// change; that case is covered by the determinism tests in bench.)

// telemetryRun executes a small DMA workload — sync offloads plus a batch —
// with tr as the machine's tracer (nil = off) and returns the final
// simulated time.
func telemetryRun(t *testing.T, tr *trace.Tracer) simtime.Time {
	t.Helper()
	timing := topology.DefaultTiming()
	timing.Tracer = tr
	m, err := machine.New(machine.Config{VEs: 1, Timing: &timing})
	if err != nil {
		t.Fatal(err)
	}
	var final simtime.Time
	err = m.RunMain(func(p *machine.Proc) error {
		rt, cerr := machine.ConnectDMA(p, m, machine.ProtocolOptions{
			Batch: offload.BatchPolicy{MaxMessages: 4},
		})
		if cerr != nil {
			return cerr
		}
		defer func() { _ = rt.Finalize() }()
		for i := 0; i < 4; i++ {
			if _, err := offload.Sync(rt, 1, mtEmpty.Bind()); err != nil {
				return err
			}
		}
		b := core.NewBatcher(rt)
		var futs []*offload.Future[offload.Unit]
		for i := 0; i < 4; i++ {
			futs = append(futs, core.BatchAdd(b, 1, mtEmpty.Bind()))
		}
		b.FlushAll()
		if _, err := offload.GetAll(futs); err != nil {
			return err
		}
		final = p.Now()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return final
}

func TestTelemetryDisarmedIsZeroCost(t *testing.T) {
	baseFinal := telemetryRun(t, nil)
	tr := trace.New(trace.Config{})
	if final := telemetryRun(t, tr); final != baseFinal {
		t.Fatalf("final simulated time changed: %v without a tracer, %v with a disarmed one",
			baseFinal, final)
	}
	// The tracer must still have observed the run: spans, latencies and
	// in-flight series, but no flow events.
	if tr.Len() == 0 {
		t.Fatal("tracer recorded no spans")
	}
	if rep := tr.SLOReport(); rep.N == 0 {
		t.Fatal("tracer observed no offload latencies")
	}
	if len(tr.Series()) == 0 {
		t.Fatal("tracer recorded no series")
	}
	if n := len(tr.FlowEvents()); n != 0 {
		t.Fatalf("tracer without flows recorded %d flow events, want 0", n)
	}
}
