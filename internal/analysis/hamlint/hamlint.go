// Package hamlint assembles the repository's analyzer suite and drives it
// over packages, applying the scoping policy and printing findings. It is
// the library behind cmd/hamlint, split out so tests can assert the
// registered analyzer set and run the suite in-process.
package hamlint

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"hamoffload/internal/analysis"
	"hamoffload/internal/analysis/acqrel"
	"hamoffload/internal/analysis/afterfree"
	"hamoffload/internal/analysis/allowcheck"
	"hamoffload/internal/analysis/borrowck"
	"hamoffload/internal/analysis/determinism"
	"hamoffload/internal/analysis/flagorder"
	"hamoffload/internal/analysis/hotalloc"
	"hamoffload/internal/analysis/spanend"
	"hamoffload/internal/analysis/unitcast"
	"hamoffload/internal/analysis/walltime"
)

// Suite returns the full analyzer set, in the order findings are grouped.
// Adding an analyzer here is the single registration step; policy scoping
// lives in analysis.Applies and docs in docs/LINTING.md. allowcheck must
// stay last: it consumes the //lint:allow usage every earlier analyzer
// recorded.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		walltime.Analyzer,
		spanend.Analyzer,
		determinism.Analyzer,
		unitcast.Analyzer,
		flagorder.Analyzer,
		acqrel.Analyzer,
		afterfree.Analyzer,
		hotalloc.Analyzer,
		borrowck.Analyzer,
		allowcheck.Analyzer,
	}
}

// A ListEntry describes one registered analyzer for -list output.
type ListEntry struct {
	Name       string `json:"name"`
	Doc        string `json:"doc"`
	ModuleWide bool   `json:"module_wide"`
}

// List returns the registered analyzers in suite order, the machine-facing
// counterpart of Suite for `hamlint -list -json`.
func List() []ListEntry {
	var out []ListEntry
	for _, a := range Suite() {
		out = append(out, ListEntry{Name: a.Name, Doc: a.Doc, ModuleWide: a.RunModule != nil})
	}
	return out
}

// Options configures one Main run.
type Options struct {
	// JSON switches the output from file:line:col: [analyzer] message lines
	// to a single sorted JSON array of findings.
	JSON bool
	// Run restricts the run to the named analyzers (suite order is kept
	// regardless of the order given here). Empty means the full suite. An
	// unknown name is a usage error: exit 2.
	Run []string
	// Stats appends per-analyzer wall time and finding counts to the output:
	// a table in text mode, a {"findings":…,"stats":…} object in JSON mode.
	// The module-wide passes dominate the runtime, so this is the first stop
	// when iterating on the suite feels slow.
	Stats bool
}

// An AnalyzerStat is one row of -stats output: how long an analyzer's passes
// took (per-package and module phases combined) and how many findings
// survived suppression and scoping.
type AnalyzerStat struct {
	Name     string `json:"name"`
	Time     string `json:"time"`
	Nanos    int64  `json:"ns"`
	Findings int    `json:"findings"`
}

// jsonDiag is the stable wire shape of one finding in -json mode.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// Main loads the packages matching patterns (from dir), runs the suite —
// per-package passes plus the module-wide interprocedural passes — under the
// scoping policy, and writes findings to out. It returns the process exit
// code: 0 clean, 1 findings, 2 load failure (including an empty package
// set, which almost always means a mistyped pattern) or an unknown -run
// name.
func Main(dir string, patterns []string, out io.Writer, opts Options) int {
	suite := Suite()
	if len(opts.Run) > 0 {
		known := map[string]*analysis.Analyzer{}
		for _, a := range suite {
			known[a.Name] = a
		}
		want := map[string]bool{}
		for _, name := range opts.Run {
			if known[name] == nil {
				fmt.Fprintf(out, "hamlint: unknown analyzer %q in -run (use -list for the registered set)\n", name)
				return 2
			}
			want[name] = true
		}
		var selected []*analysis.Analyzer
		for _, a := range suite {
			if want[a.Name] {
				selected = append(selected, a)
			}
		}
		suite = selected
	}
	names := make([]string, 0, len(suite))
	for _, a := range suite {
		names = append(names, a.Name)
	}
	tracker := analysis.NewAllowTracker(names, len(opts.Run) == 0)

	pkgs, err := analysis.Load(dir, patterns...)
	if err != nil {
		fmt.Fprintf(out, "hamlint: %v\n", err)
		return 2
	}
	if len(pkgs) == 0 {
		fmt.Fprintf(out, "hamlint: patterns %v matched no packages; nothing was checked (mistyped pattern?)\n", patterns)
		return 2
	}
	// Without -stats the suite runs batched; with it, one analyzer at a
	// time so each one's wall time is attributable. The tracker, scoping
	// and ordering semantics are identical either way — RunTracked and
	// RunModuleTracked loop over the given analyzers independently.
	elapsed := map[string]time.Duration{}
	var all []analysis.Diagnostic
	for _, pkg := range pkgs {
		diags, err := runPerPkg(pkg, suite, tracker, opts.Stats, elapsed)
		if err != nil {
			fmt.Fprintf(out, "hamlint: %v\n", err)
			return 2
		}
		all = append(all, diags...)
	}
	moduleDiags, err := runModule(pkgs, suite, tracker, opts.Stats, elapsed)
	if err != nil {
		fmt.Fprintf(out, "hamlint: %v\n", err)
		return 2
	}
	all = append(all, moduleDiags...)
	analysis.SortDiagnostics(all)

	var stats []AnalyzerStat
	if opts.Stats {
		counts := map[string]int{}
		for _, d := range all {
			counts[d.Analyzer]++
		}
		for _, a := range suite {
			stats = append(stats, AnalyzerStat{
				Name:     a.Name,
				Time:     elapsed[a.Name].Round(time.Microsecond).String(),
				Nanos:    elapsed[a.Name].Nanoseconds(),
				Findings: counts[a.Name],
			})
		}
	}

	if opts.JSON {
		jd := make([]jsonDiag, 0, len(all))
		for _, d := range all {
			jd = append(jd, jsonDiag{
				File: d.Pos.Filename, Line: d.Pos.Line, Column: d.Pos.Column,
				Analyzer: d.Analyzer, Message: d.Message,
			})
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		var encErr error
		if opts.Stats {
			encErr = enc.Encode(struct {
				Findings []jsonDiag     `json:"findings"`
				Stats    []AnalyzerStat `json:"stats"`
			}{jd, stats})
		} else {
			encErr = enc.Encode(jd)
		}
		if encErr != nil {
			fmt.Fprintf(out, "hamlint: %v\n", encErr)
			return 2
		}
		if len(all) > 0 {
			return 1
		}
		return 0
	}

	for _, d := range all {
		fmt.Fprintln(out, d)
	}
	if opts.Stats {
		fmt.Fprintf(out, "hamlint stats (%d package(s)):\n", len(pkgs))
		for _, s := range stats {
			fmt.Fprintf(out, "  %-11s %12s  %d finding(s)\n", s.Name, s.Time, s.Findings)
		}
	}
	if len(all) > 0 {
		fmt.Fprintf(out, "hamlint: %d issue(s); see docs/LINTING.md (//lint:allow <analyzer> <why> suppresses a finding)\n", len(all))
		return 1
	}
	return 0
}

// runPerPkg runs the per-package phase over one package: batched normally,
// analyzer-by-analyzer with timing when stats are requested.
func runPerPkg(pkg *analysis.Package, suite []*analysis.Analyzer, tracker *analysis.AllowTracker, timed bool, elapsed map[string]time.Duration) ([]analysis.Diagnostic, error) {
	if !timed {
		return analysis.RunTracked(pkg, suite, analysis.Applies, tracker)
	}
	var all []analysis.Diagnostic
	for _, a := range suite {
		start := time.Now()
		diags, err := analysis.RunTracked(pkg, []*analysis.Analyzer{a}, analysis.Applies, tracker)
		elapsed[a.Name] += time.Since(start)
		if err != nil {
			return nil, err
		}
		all = append(all, diags...)
	}
	return all, nil
}

// runModule runs the module-wide phase: batched normally, timed per analyzer
// when stats are requested. Suite order is preserved so allowcheck still
// consumes every earlier analyzer's //lint:allow usage.
func runModule(pkgs []*analysis.Package, suite []*analysis.Analyzer, tracker *analysis.AllowTracker, timed bool, elapsed map[string]time.Duration) ([]analysis.Diagnostic, error) {
	if !timed {
		return analysis.RunModuleTracked(pkgs, suite, analysis.Applies, tracker)
	}
	var all []analysis.Diagnostic
	for _, a := range suite {
		start := time.Now()
		diags, err := analysis.RunModuleTracked(pkgs, []*analysis.Analyzer{a}, analysis.Applies, tracker)
		elapsed[a.Name] += time.Since(start)
		if err != nil {
			return nil, err
		}
		all = append(all, diags...)
	}
	return all, nil
}
