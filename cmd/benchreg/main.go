// Command benchreg is the benchmark-regression harness. It walks the
// experiment table (bench.Experiments) and, for every row that commits a
// baseline, measures it afresh and either rewrites the baseline or verifies
// the fresh run against it:
//
//	benchreg                 rerun and (re)write every baseline in -dir
//	benchreg -check          rerun and fail if any stat regresses beyond -tol
//	benchreg -check -tol 0   demand bit-exact reproduction (simulated time is
//	                         deterministic, so this holds on an unchanged tree)
//
// In both modes it also enforces each row's design targets (bench.Gate).
// What is compared how — latency distributions within -tol, every other
// simulated value exactly — is Experiment.Regress's rule, stated there.
package main

import (
	"flag"
	"fmt"
	"os"

	"hamoffload/bench"
)

func main() {
	check := flag.Bool("check", false, "compare against the committed baselines instead of rewriting them")
	tol := flag.Float64("tol", 0.05, "allowed relative regression per stat in -check mode (0.05 = 5%)")
	dir := flag.String("dir", ".", "directory holding the baselines")
	flag.Parse()

	failed := false
	for _, e := range bench.Experiments {
		if e.Measure == nil {
			continue
		}
		fmt.Fprintf(os.Stderr, "benchreg: %s: %s...\n", e.Name, e.Doc)
		notes, err := e.Regress(*dir, *check, *tol)
		for _, n := range notes {
			fmt.Fprintf(os.Stderr, "benchreg: %s: %s\n", e.Name, n)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchreg: %s: %v\n", e.Name, err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
	if *check {
		fmt.Fprintln(os.Stderr, "benchreg: baselines hold")
	}
}
