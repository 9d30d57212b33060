package bench

import (
	"bytes"
	"testing"

	"hamoffload/internal/simtime"
	"hamoffload/internal/trace"
	"hamoffload/machine"
)

// telemetrySmall is the telemetry workload on two VEs, two waves of eight.
var telemetrySmall = machine.World{Config: machine.Config{VEs: 2}}

// Determinism guard for the armed telemetry experiment: two identical runs
// must produce byte-identical renders, Chrome flow exports and folded
// flamegraph stacks, and identical deterministic engine-profile fields —
// the property CI's telemetry smoke job enforces on the full binary.
func TestTelemetryArmedDeterministic(t *testing.T) {
	cfg := TelemetryConfig{Tasks: 8, Waves: 2}
	type dump struct {
		render, chrome, folded []byte
	}
	run := func() (TelemetryResult, dump) {
		res, err := Telemetry(telemetrySmall, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var d dump
		var render, chrome, folded bytes.Buffer
		RenderTelemetry(&render, res)
		if err := res.Tracer.ExportChromeFlows(&chrome); err != nil {
			t.Fatal(err)
		}
		if err := res.Tracer.ExportFolded(&folded); err != nil {
			t.Fatal(err)
		}
		d.render, d.chrome, d.folded = render.Bytes(), chrome.Bytes(), folded.Bytes()
		return res, d
	}
	res1, d1 := run()
	res2, d2 := run()
	if !bytes.Equal(d1.render, d2.render) {
		t.Error("telemetry render differs between identical runs")
	}
	if !bytes.Equal(d1.chrome, d2.chrome) {
		t.Error("Chrome flow export differs between identical runs")
	}
	if !bytes.Equal(d1.folded, d2.folded) {
		t.Error("folded flamegraph export differs between identical runs")
	}
	if res1.Events != res2.Events || res1.Yields != res2.Yields || res1.FinalTime != res2.FinalTime || res1.MaxQueueLen != res2.MaxQueueLen {
		t.Errorf("deterministic engine fields differ: %d/%d/%v/%d vs %d/%d/%v/%d",
			res1.Events, res1.Yields, res1.FinalTime, res1.MaxQueueLen, res2.Events, res2.Yields, res2.FinalTime, res2.MaxQueueLen)
	}
	if res1.Retries != res2.Retries {
		t.Errorf("retry counts differ: %d vs %d", res1.Retries, res2.Retries)
	}
	if len(d1.folded) == 0 {
		t.Error("armed run produced no folded stacks")
	}
}

// The engine report is simulated-clock data only, so separate runs must
// agree on every field.
func TestEngineReportDeterministicFields(t *testing.T) {
	cfg := TelemetryConfig{Tasks: 8, Waves: 2}
	r1, err := EngineProfileReport(telemetrySmall, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := EngineProfileReport(telemetrySmall, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Errorf("engine report differs between identical runs: %+v vs %+v", r1, r2)
	}
}

// The committed BENCH_engine.json, events and yields included, is what the
// engine row measures now: a change that adds a coroutine switch to the
// telemetry workload — a charge that sleeps at once, a park that no longer
// takes its own next event in place — moves it, as an extra event does.
func TestEngineBaselineHolds(t *testing.T) {
	row, ok := Lookup("engine")
	if !ok {
		t.Fatal("no engine row")
	}
	if _, err := row.Regress("..", true, 0); err != nil {
		t.Error(err)
	}
}

// A flow records what ran: on the telemetry workload, whose seeded bit
// flips draw NACKs, retransmissions and dedup answers, every execute event
// belongs to an issued offload, an offload executes at most once per node,
// and its execute falls strictly between its issue and its settle.
func TestFlowRecordsWholeAndTrue(t *testing.T) {
	for _, ves := range []int{2, 3, 4} {
		res, err := Telemetry(machine.World{Config: machine.Config{VEs: ves}}, TelemetryConfig{Tasks: 96, Waves: 3})
		if err != nil {
			t.Fatalf("%d VEs: %v", ves, err)
		}
		issue, settle := map[uint64]simtime.Time{}, map[uint64]simtime.Time{}
		type exec struct {
			id   uint64
			node int
		}
		execs := map[exec]simtime.Time{}
		executed := map[uint64]bool{}
		for _, e := range res.Tracer.FlowEvents() {
			switch e.Kind {
			case trace.FlowIssue:
				issue[e.ID] = e.T
			case trace.FlowSettle:
				settle[e.ID] = e.T
			case trace.FlowExecute:
				k := exec{e.ID, e.Node}
				if _, twice := execs[k]; twice {
					t.Errorf("%d VEs: offload 0x%x executed twice on node %d", ves, e.ID, e.Node)
				}
				execs[k] = e.T
				executed[e.ID] = true
			}
		}
		// The offloads, and Finalize's terminate of each VE.
		if want := 3*96 + ves; len(issue) != want || len(executed) != want {
			t.Errorf("%d VEs: %d offloads issued, %d executed; want %d, each executed", ves, len(issue), len(executed), want)
		}
		for k, at := range execs {
			is, issued := issue[k.id]
			if !issued {
				t.Errorf("%d VEs: execute on node %d under 0x%x, which no offload issued", ves, k.node, k.id)
				continue
			}
			if st, ok := settle[k.id]; !ok || !(is < at && at < st) {
				t.Errorf("%d VEs: offload 0x%x issued at %v, executed on node %d at %v, settled at %v (%v)", ves, k.id, is, k.node, at, st, ok)
			}
		}
	}
}
