package bench

// EngineReport is the DES engine's own footprint on the telemetry workload:
// how many events the run schedules, when it ends and how deep the event
// queue gets. Every field is simulated, so BENCH_engine.json is compared
// exactly; how fast the engine turns events over on the wall clock is
// bench/perf's to bound (BENCHMARK.json), not this file's.
type EngineReport struct {
	Experiment    string  `json:"experiment"` // always "engine"
	Offloads      int     `json:"offloads"`
	VEs           int     `json:"ves"`
	Events        uint64  `json:"events"`
	SimTimeUS     float64 `json:"sim_time_us"`
	MaxQueueDepth int     `json:"max_queue_depth"`
}

// EngineProfileReport runs the telemetry workload and reduces its engine
// footprint to a regression report.
func EngineProfileReport(cfg TelemetryConfig) (EngineReport, error) {
	cfg.fill()
	res, err := Telemetry(cfg)
	return EngineReport{
		Experiment:    "engine",
		Offloads:      cfg.Waves * cfg.Tasks,
		VEs:           cfg.VEs,
		Events:        res.Events,
		SimTimeUS:     res.FinalTime.Microseconds(),
		MaxQueueDepth: res.MaxQueueLen,
	}, err
}
