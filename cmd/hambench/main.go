// Command hambench regenerates the paper's evaluation artefacts from the
// simulated SX-Aurora machine: `hambench -exp NAME` prints one experiment of
// the table in bench/experiments.go, `hambench -exp all` every one in table
// order; see `hambench -h` for the names and what each prints.
//
// -trace FILE records the experiments that support it with full lifecycle
// tracing and writes the spans as Chrome trace-event JSON (load in Perfetto
// or chrome://tracing).
//
// All numbers on stdout are simulated time from the calibrated machine
// model, so they are deterministic and two runs are byte-identical (CI diffs
// them); anything read off the wall clock goes to stderr.
package main

import (
	"flag"
	"fmt"
	"os"

	"hamoffload/bench"
	"hamoffload/internal/trace"
	"hamoffload/internal/units"
)

// listExperiments prints the runnable rows of the table: the usage text and
// the unknown-name message are the same list.
func listExperiments() {
	fmt.Fprintf(os.Stderr, "  %-20s every experiment below, in this order\n", "all")
	for _, e := range bench.Experiments {
		if e.Run != nil {
			fmt.Fprintf(os.Stderr, "  %-20s %s\n", e.Name, e.Doc)
		}
	}
}

func fail(args ...any) {
	fmt.Fprintln(os.Stderr, append([]any{"hambench:"}, args...)...)
	os.Exit(1)
}

func main() {
	env := &bench.Env{Out: os.Stdout}
	exp := flag.String("exp", "all", "experiment to run (names below)")
	flag.IntVar(&env.Socket, "socket", 0, "VH socket to offload from")
	flag.IntVar(&env.Reps, "reps", 0, "timed repetitions per point (0 = defaults)")
	flag.Int64Var(&env.MaxSize, "max-size", (256 * units.MiB).Int64(), "largest transfer size for sweeps")
	flag.StringVar(&env.CSV, "csv", "", "write the bandwidth sweep as CSV to this file")
	flag.BoolVar(&env.Plot, "plot", true, "render ASCII plots of the bandwidth sweep")
	flag.BoolVar(&env.Hist, "hist", false, "also print per-offload latency histograms of the offload-cost bars")
	tracePath := flag.String("trace", "", "record with lifecycle tracing and write Chrome trace-event JSON to this file")
	flag.StringVar(&env.Flows, "flows", "", "write the causal offload flows as Chrome trace-event JSON to this file")
	flag.StringVar(&env.Folded, "folded", "", "write the causal offload flows as folded flamegraph stacks to this file")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: hambench [flags]")
		flag.PrintDefaults()
		fmt.Fprintln(os.Stderr, "experiments:")
		listExperiments()
	}
	flag.Parse()

	// An unknown name is an error that prints the list — silently running
	// nothing buries typos.
	run := bench.Experiments
	if *exp != "all" {
		e, ok := bench.Lookup(*exp)
		if !ok || e.Run == nil {
			fmt.Fprintf(os.Stderr, "hambench: unknown experiment %q; valid names:\n", *exp)
			listExperiments()
			os.Exit(2)
		}
		run = []bench.Experiment{e}
	}
	if *tracePath != "" {
		env.Tracer = trace.NewTracer()
	}

	for _, e := range run {
		if e.Run == nil {
			continue
		}
		if err := e.Run(env); err != nil {
			fail(e.Name+":", err)
		}
		fmt.Println()
	}

	if env.Tracer != nil && env.Tracer.Len() > 0 {
		f, err := os.Create(*tracePath)
		if err != nil {
			fail(err)
		}
		if err := env.Tracer.ExportChrome(f); err != nil {
			fail("trace:", err)
		}
		_ = f.Close()
		fmt.Fprintln(os.Stderr, "hambench: wrote", *tracePath)
		if n := env.Tracer.Dropped(); n > 0 {
			fmt.Printf("trace: %s lacks the %d spans recorded past the tracer's cap\n", *tracePath, n)
		}
	}
}
