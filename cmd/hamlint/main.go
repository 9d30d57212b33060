// Command hamlint runs the repository's invariant analyzers (walltime,
// spanend, determinism, unitcast, flagorder, acqrel, afterfree, borrowck,
// allowcheck) over the given packages. It is the lint
// half of `make check`:
//
//	go run ./cmd/hamlint ./...
//
// Findings print as file:line:col: [analyzer] message and make the command
// exit 1; -json emits them as a sorted JSON array instead. -run restricts
// the run to a comma-separated subset of analyzers; -list prints the
// registered set (with -json, as a machine-readable array); -stats appends
// per-analyzer wall time and finding counts. Each analyzer's
// contract — and the simulator invariant behind it — is documented in
// docs/LINTING.md; a finding can be suppressed at the offending line with
// `//lint:allow <analyzer> <justification>` (the allowcheck pass reports
// directives that no longer suppress anything).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"hamoffload/internal/analysis/hamlint"
)

func main() {
	list := flag.Bool("list", false, "list the registered analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings (or -list output) as a JSON array")
	run := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	stats := flag.Bool("stats", false, "append per-analyzer wall time and finding counts")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: hamlint [-list] [-json] [-run a,b] [-stats] [packages]\n\n"+
			"Runs the hamoffload invariant analyzers over the packages\n"+
			"(default ./...). See docs/LINTING.md.\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *list {
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(hamlint.List()); err != nil {
				fmt.Fprintf(os.Stderr, "hamlint: %v\n", err)
				os.Exit(2)
			}
			return
		}
		for _, a := range hamlint.List() {
			fmt.Printf("%-11s %s\n", a.Name, a.Doc)
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var selected []string
	if *run != "" {
		for _, name := range strings.Split(*run, ",") {
			if name = strings.TrimSpace(name); name != "" {
				selected = append(selected, name)
			}
		}
	}
	os.Exit(hamlint.Main(".", patterns, os.Stdout, hamlint.Options{JSON: *jsonOut, Run: selected, Stats: *stats}))
}
