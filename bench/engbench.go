package bench

import (
	"encoding/json"
	"fmt"
	"os"
)

// The engine benchmark profiles the DES engine itself while it drives the
// telemetry workload: how many events the run schedules, how deep the event
// queue gets, and — on the wall-clock side — how fast the engine turns
// events over and how much it allocates per event. The simulated-clock
// fields are deterministic and compared exactly against the committed
// BENCH_engine.json; the wall-clock fields are machine-dependent, so the
// comparison only applies sanity gates: a throughput floor that a park
// costing a trip through the Go scheduler falls under, and an allocation
// ceiling that catches order-of-magnitude regressions.

const (
	// minEventsPerWallSec is the engine-throughput floor, placed between
	// the two ways a park can switch. On a 2-core 2.1 GHz sandbox this
	// workload runs at 2.0-2.9 M events/s with processes as coroutines
	// resumed in-thread, and ran at 0.71-0.84 M when every park was two
	// channel handoffs through the Go scheduler; a return to the latter, or
	// anything that costs as much, lands below the floor on CI-class hosts.
	minEventsPerWallSec = 1_200_000
	// allocSlack is how far allocations per event may grow over the
	// committed baseline before the gate trips.
	allocSlack = 2.0
)

// EngineReport is the committed DES-engine profile baseline.
type EngineReport struct {
	Experiment       string  `json:"experiment"` // always "engine"
	Offloads         int     `json:"offloads"`
	VEs              int     `json:"ves"`
	Events           uint64  `json:"events"`
	SimTimeUS        float64 `json:"sim_time_us"`
	MaxQueueDepth    int     `json:"max_queue_depth"`
	WallEventsPerSec float64 `json:"wall_events_per_sec"`
	AllocsPerEvent   float64 `json:"allocs_per_event"`
}

// EngineProfileReport runs the telemetry workload and reduces its engine
// profile to a regression report.
func EngineProfileReport(cfg TelemetryConfig) (EngineReport, error) {
	cfg.fill()
	res, err := Telemetry(cfg)
	if err != nil {
		return EngineReport{}, err
	}
	e := res.Engine
	return EngineReport{
		Experiment:       "engine",
		Offloads:         cfg.Waves * cfg.Tasks,
		VEs:              cfg.VEs,
		Events:           e.Events,
		SimTimeUS:        e.FinalTime.Microseconds(),
		MaxQueueDepth:    e.MaxQueueLen,
		WallEventsPerSec: e.EventsPerWallSec,
		AllocsPerEvent:   e.AllocsPerEvent,
	}, nil
}

// WriteEngineReport serialises r as indented JSON at path, mirroring
// WriteReport's trailing-newline convention.
func WriteEngineReport(path string, r EngineReport) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadEngineReport loads a baseline written by WriteEngineReport.
func ReadEngineReport(path string) (EngineReport, error) {
	var r EngineReport
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	return r, nil
}

// CompareEngineReports checks cur against the committed baseline: the
// deterministic fields must match exactly (any drift is a real change to
// the simulated machine or the telemetry workload), while the wall-clock
// fields pass through the loose sanity gates described above. It returns
// one human-readable line per violation; empty means clean.
func CompareEngineReports(base, cur EngineReport) []string {
	var bad []string
	if base.Experiment != cur.Experiment {
		return append(bad, fmt.Sprintf("experiment mismatch: baseline %q vs current %q",
			base.Experiment, cur.Experiment))
	}
	exact := func(metric string, baseV, curV float64) {
		if baseV != curV {
			bad = append(bad, fmt.Sprintf("engine/%s: deterministic value drifted %v -> %v",
				metric, baseV, curV))
		}
	}
	exact("offloads", float64(base.Offloads), float64(cur.Offloads))
	exact("ves", float64(base.VEs), float64(cur.VEs))
	exact("events", float64(base.Events), float64(cur.Events))
	exact("sim_time_us", base.SimTimeUS, cur.SimTimeUS)
	exact("max_queue_depth", float64(base.MaxQueueDepth), float64(cur.MaxQueueDepth))
	if cur.WallEventsPerSec < minEventsPerWallSec {
		bad = append(bad, fmt.Sprintf("engine/wall_events_per_sec: %.0f below floor %d",
			cur.WallEventsPerSec, minEventsPerWallSec))
	}
	if base.AllocsPerEvent > 0 && cur.AllocsPerEvent > base.AllocsPerEvent*(1+allocSlack) {
		bad = append(bad, fmt.Sprintf("engine/allocs_per_event: %.2f exceeds baseline %.2f by more than %.0f%%",
			cur.AllocsPerEvent, base.AllocsPerEvent, allocSlack*100))
	}
	return bad
}
