package bench

import (
	"bytes"
	"testing"

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
