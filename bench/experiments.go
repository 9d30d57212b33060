package bench

import (
	"fmt"
	"io"
	"os"

	"hamoffload/internal/trace"
	"hamoffload/internal/units"
	"hamoffload/machine"
)

// This file is the one table of experiments. cmd/hambench runs its rows
// (-exp NAME, -exp all, the usage text), cmd/benchreg regresses the rows
// that have a Measure, and `make samples` pins each row's output under
// docs/sample-output/. Adding or removing an experiment is one row here.

// Experiment is one row: a printed artefact (Run), a committed baseline
// (Measure, held against BENCH_<Name>.json by Regress) with its design
// targets (Gates), or both.
type Experiment struct {
	Name string
	Doc  string
	// Run prints the artefact to env.Out; nil for a row that is only a
	// baseline.
	Run func(env *Env) error
	// Measure returns the value committed as the row's baseline: a Report is
	// compared stat by stat within a tolerance, anything else byte for byte.
	// nil for a row with no baseline.
	Measure func() (any, error)
	Gates   []Gate
}

// Env is what a Run sees of the command line: hambench's flags, plus the
// Fig. 10 sweep that fig10, table4 and crossover share. Every row derives its
// World from env.world().
type Env struct {
	Out           io.Writer
	Socket        int           // VH socket to offload from
	Reps          int           // timed repetitions per point (0 = each experiment's default)
	MaxSize       int64         // largest transfer size of the Fig. 10 sweep
	CSV           string        // fig10: also write the sweep as CSV here
	Plot          bool          // fig10: render ASCII plots
	Hist          bool          // fig9: also print per-offload latency histograms
	Flows, Folded string        // telemetry: export causal flows to these files
	Tracer        *trace.Tracer // records fig9 / breakdown / serving when non-nil

	series []Series
}

// world is the base World of every row: the default machine, its VH process
// pinned to -socket.
func (env *Env) world() machine.World {
	return machine.World{Config: machine.Config{Socket: env.Socket}}
}

// sweep runs the Fig. 10 bandwidth sweep once per Env.
func (env *Env) sweep() ([]Series, error) {
	if env.series != nil {
		return env.series, nil
	}
	fmt.Fprintln(os.Stderr, "bench: running bandwidth sweep (up to", sizeLabel(env.MaxSize), ")...")
	var err error
	env.series, err = Fig10(env.world(), Fig10Config{MaxSize: env.MaxSize, Reps: env.Reps})
	return env.series, err
}

// Experiments is the table, in the order `hambench -exp all` prints it.
var Experiments = []Experiment{
	{Name: "fig9", Doc: "offload cost, three systems (Fig. 9; -socket 1 is the §V-A variant, -hist adds latency histograms)",
		Run: runFig9, Measure: measure(Fig9Report)},
	{Name: "breakdown", Doc: "per-phase split of one offload (Fig. 9 text)", Run: runBreakdown},
	{Name: "fig10", Doc: "bandwidth sweep, four panels (Fig. 10; -csv, -plot, -max-size)", Run: runFig10},
	{Name: "table4", Doc: "max bandwidths (Table IV)",
		Run: show(func(env *Env) ([]TableIVRow, error) {
			sweep, err := env.sweep()
			return TableIV(sweep), err
		}, RenderTableIV)},
	{Name: "crossover", Doc: "§V-B crossover points", Run: show((*Env).sweep, RenderCrossover)},
	{Name: "ablate-hugepages", Doc: "A2 + A3: host page size x DMA manager (naive vs 4dma bulk translation)",
		Run: ablation("A2 — host page size x DMA manager (VEO write bandwidth)",
			func(env *Env) ([]AblationRow, error) { return AblateHugePages(env.world(), (64 * units.MiB).Int64()) })},
	{Name: "ablate-poll", Doc: "VE poll-interval sweep",
		Run: ablation("Ablation — VE receive-flag poll interval (DMA protocol)",
			func(env *Env) ([]AblationRow, error) { return AblatePollInterval(env.world(), nil) })},
	{Name: "ablate-buffers", Doc: "message-slot count sweep",
		Run: ablation("Ablation — message-buffer count (async pipeline)",
			func(env *Env) ([]AblationRow, error) { return AblateBufferCount(env.world(), nil, 32) })},
	{Name: "ablate-granularity", Doc: "protocol gap vs kernel duration",
		Run: show(func(env *Env) ([]GranularityRow, error) { return AblateGranularity(env.world(), nil) }, RenderGranularity)},
	{Name: "remote", Doc: "§VI outlook: offloading over InfiniBand",
		Run: show(func(env *Env) (RemoteResult, error) { return Remote(env.world(), env.Reps) }, RenderRemote)},
	{Name: "putget", Doc: "public-API data path vs Fig. 10 curves",
		Run: show(func(env *Env) ([]PutGetPoint, error) { return PutGet(env.world(), nil, env.Reps) }, RenderPutGet)},
	{Name: "native-vs-offload", Doc: "§I: native VE execution vs offloading",
		Run: show(func(env *Env) ([]NativeVsOffloadRow, error) {
			return NativeVsOffload(env.world(), NativeVsOffloadConfig{})
		}, RenderNativeVsOffload)},
	{Name: "faults", Doc: "fault-tolerance overhead on the Fig. 9 path",
		Run: ablation("Fault tolerance — empty-offload cost (Fig. 9 path)",
			func(env *Env) ([]AblationRow, error) { return FaultOverhead(env.world(), env.Reps) })},
	{Name: "batch", Doc: "batched-message amortisation vs Fig. 9 baseline",
		Run: show(func(env *Env) (BatchResult, error) {
			return Batch(env.world(), BatchConfig{Reps: env.Reps})
		}, RenderBatch),
		Measure: measure(BatchReport),
		Gates: []Gate{{Doc: "a 16-message batch amortises the per-message cost to at most half the single-message DMA cost (docs/BATCHING.md)",
			Num: "batch-16-per-msg", Den: "single-dma", Stat: "mean", Max: 0.5}}},
	{Name: "resilience", Doc: "gray-failure tail latency: hedging + circuit breakers",
		Run: show(func(env *Env) ([]ResilienceMode, error) {
			return Resilience(env.world(), ResilienceConfig{Offloads: env.Reps})
		}, RenderResilience),
		Measure: measure(ResilienceReport),
		Gates: []Gate{{Doc: "with one of two VEs degraded 10x, hedging plus health-aware scheduling recovers at least 2x of the baseline's p99.9 (docs/FAULTS.md)",
			Num: "hedged-breaker", Den: "baseline", Stat: "p999", Max: 0.5}}},
	{Name: "telemetry", Doc: "continuous telemetry: sparklines, SLO table, causal flows (-flows, -folded)", Run: runTelemetry},
	{Name: "serving", Doc: "million-offload serving gateway: QoS, quotas, stealing",
		Run: show(func(env *Env) (ServingResult, error) {
			return Serving(traced(env.world(), env.Tracer), ServingConfig{Offloads: env.Reps})
		}, RenderServing),
		Measure: measure(ServingReport),
		Gates: []Gate{{Doc: "on the saturated fleet, latency-critical traffic keeps a p99 at or below half the best-effort p99 (docs/SERVING.md)",
			Num: "latency-critical", Den: "best-effort", Stat: "p99", Max: 0.5}}},
	{Name: "ablate-result-path", Doc: "SHM vs DMA result return",
		Run: ablation("Ablation — result return path (DMA protocol)",
			func(env *Env) ([]AblationRow, error) { return AblateResultPath(env.world()) })},
	{Name: "engine", Doc: "the DES engine's simulated footprint on the telemetry workload (baseline only)",
		Measure: measure(EngineProfileReport)},
}

// Lookup finds a row by name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// show is the common shape of a Run: compute, then render to env.Out.
func show[T any](compute func(*Env) (T, error), render func(io.Writer, T)) func(*Env) error {
	return func(env *Env) error {
		v, err := compute(env)
		if err != nil {
			return err
		}
		render(env.Out, v)
		return nil
	}
}

// ablation is show for the experiments that print AblationRows under a title.
func ablation(title string, compute func(*Env) ([]AblationRow, error)) func(*Env) error {
	return show(compute, func(w io.Writer, rows []AblationRow) { RenderAblation(w, title, rows) })
}

// measure adapts a typed report function, run at its default configuration
// on the default World, to Experiment.Measure.
func measure[C, R any](report func(machine.World, C) (R, error)) func() (any, error) {
	return func() (any, error) {
		var defaults C
		return report(machine.World{}, defaults)
	}
}

func runFig9(env *Env) error {
	r, err := Fig9(traced(env.world(), env.Tracer), Fig9Config{Reps: env.Reps})
	if err != nil {
		return err
	}
	RenderFig9(env.Out, r)
	if env.Hist {
		for _, h := range r.Hists() {
			fmt.Fprintln(env.Out)
			h.Render(env.Out)
		}
	}
	return nil
}

func runBreakdown(env *Env) error {
	w := traced(env.world(), env.Tracer)
	w.DMA = true
	res, err := Breakdown(w, Fig9Config{})
	if err != nil {
		return err
	}
	RenderBreakdown(env.Out, res)
	fmt.Fprintln(env.Out)
	fmt.Fprintln(env.Out, "Per-node metrics registries")
	for _, reg := range res.Tracer.Registries() {
		reg.Render(env.Out)
	}
	return nil
}

func runFig10(env *Env) error {
	sweep, err := env.sweep()
	if err != nil {
		return err
	}
	RenderFig10(env.Out, sweep, 1024)
	if env.Plot {
		RenderASCIIPlot(env.Out, sweep, DirDown)
		RenderASCIIPlot(env.Out, sweep, DirUp)
	}
	return export(env.CSV, func(w io.Writer) error { return WriteCSV(w, sweep) })
}

func runTelemetry(env *Env) error {
	res, err := Telemetry(env.world(), TelemetryConfig{})
	if err != nil {
		return err
	}
	RenderTelemetry(env.Out, res)
	if err := export(env.Flows, res.Tracer.ExportChromeFlows); err != nil {
		return err
	}
	return export(env.Folded, res.Tracer.ExportFolded)
}

// export writes one side artefact to path; an empty path means not asked for.
func export(path string, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(out); err != nil {
		_ = out.Close()
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "bench: wrote", path)
	return nil
}
