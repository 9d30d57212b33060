package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// This file is the benchmark-regression harness: an experiment's Measure
// reduces it to a value — usually a Report of per-operation latency
// statistics — that is committed as BENCH_<Name>.json at the repo root, and
// Regress holds a fresh run against that file and against the experiment's
// Gates. All times are simulated, so on an unchanged tree a rerun reproduces
// the baseline exactly; any drift is a real change to the modelled protocols.

// Stats summarises per-operation latency samples in microseconds of
// simulated time. Percentiles are nearest-rank over the sorted samples.
type Stats struct {
	N      int     `json:"n"`
	MeanUS float64 `json:"mean_us"`
	P50US  float64 `json:"p50_us"`
	P99US  float64 `json:"p99_us"`
	P999US float64 `json:"p999_us"`
}

// NewStats computes Stats from raw samples.
func NewStats(samples []float64) Stats {
	if len(samples) == 0 {
		return Stats{}
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	var sum float64
	for _, s := range sorted {
		sum += s
	}
	rank := func(p float64) float64 {
		i := int(p*float64(len(sorted))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(sorted) {
			i = len(sorted) - 1
		}
		return sorted[i]
	}
	return Stats{
		N:      len(sorted),
		MeanUS: sum / float64(len(sorted)),
		P50US:  rank(0.50),
		P99US:  rank(0.99),
		P999US: rank(0.999),
	}
}

// ReportEntry is one measured operation.
type ReportEntry struct {
	Name string `json:"name"`
	Stats
}

// Report is one experiment's set of entries. Entries is a slice, not a map,
// so the JSON serialisation is byte-stable across runs.
type Report struct {
	Experiment string        `json:"experiment"`
	Entries    []ReportEntry `json:"entries"`
}

// Entry returns the named entry, or false.
func (r Report) Entry(name string) (ReportEntry, bool) {
	for _, e := range r.Entries {
		if e.Name == name {
			return e, true
		}
	}
	return ReportEntry{}, false
}

// Gate is a design target as data: Num's Stat may be at most Max times
// Den's Stat, both entries of the experiment's fresh Report.
type Gate struct {
	Doc      string  // what the target protects, and where it is argued
	Num, Den string  // entry names
	Stat     string  // "mean", "p99" or "p999"
	Max      float64 // largest allowed Num/Den
}

// stat returns the named statistic of the named entry.
func (r Report) stat(entry, stat string) (float64, error) {
	e, ok := r.Entry(entry)
	if !ok {
		return 0, fmt.Errorf("%s report has no entry %q", r.Experiment, entry)
	}
	switch stat {
	case "mean":
		return e.MeanUS, nil
	case "p99":
		return e.P99US, nil
	case "p999":
		return e.P999US, nil
	}
	return 0, fmt.Errorf("unknown stat %q", stat)
}

// Check evaluates the gate on r. The returned line states the measured
// ratio; the error is non-nil when an entry is missing or the ratio is
// above Max.
func (g Gate) Check(r Report) (string, error) {
	num, err := r.stat(g.Num, g.Stat)
	if err != nil {
		return "", err
	}
	den, err := r.stat(g.Den, g.Stat)
	if err != nil {
		return "", err
	}
	line := fmt.Sprintf("%s %s %.2f us vs %s %.2f us (ratio %.2f, gate %.2f)",
		g.Stat, g.Num, num, g.Den, den, num/den, g.Max)
	if num/den > g.Max {
		return line, fmt.Errorf("gate failed: %s — %s", line, g.Doc)
	}
	return line, nil
}

// BaselineFile is the name of e's committed baseline.
func (e Experiment) BaselineFile() string { return "BENCH_" + e.Name + ".json" }

// Regress measures e afresh, checks its gates, and then either writes the
// result to dir as the new baseline or, with check set, compares it against
// the one committed there: a Report stat by stat within tol (CompareReports),
// any other value byte for byte, because simulated numbers that are not
// latency distributions have no tolerance to speak of. The notes narrate
// what passed; the error names every gate or stat that did not. The gates
// run in both modes: refreshing a baseline that violates a design target
// should be just as loud as regressing against one.
func (e Experiment) Regress(dir string, check bool, tol float64) (notes []string, err error) {
	cur, err := e.Measure()
	if err != nil {
		return nil, err
	}
	rep, isReport := cur.(Report)
	for _, g := range e.Gates {
		line, err := g.Check(rep)
		if err != nil {
			return notes, err
		}
		notes = append(notes, line)
	}
	data, err := json.MarshalIndent(cur, "", "  ")
	if err != nil {
		return notes, err
	}
	data = append(data, '\n') // so the baseline diffs cleanly
	path := filepath.Join(dir, e.BaselineFile())
	if !check {
		return append(notes, "wrote "+path), os.WriteFile(path, data, 0o644)
	}
	committed, err := os.ReadFile(path)
	if err != nil {
		return notes, fmt.Errorf("no baseline (run benchreg without -check to create it): %w", err)
	}
	var bad []string
	if isReport {
		var base Report
		if err := json.Unmarshal(committed, &base); err != nil {
			return notes, fmt.Errorf("parsing %s: %w", path, err)
		}
		bad = CompareReports(base, rep, tol)
	} else {
		bad = diffLines(e.Name, string(committed), string(data))
	}
	if len(bad) > 0 {
		return notes, fmt.Errorf("%d value(s) off the committed %s:\n  %s",
			len(bad), path, strings.Join(bad, "\n  "))
	}
	return notes, nil
}

// diffLines compares two indented-JSON documents line by line — one field
// per line, so each returned violation names the field that drifted.
func diffLines(name, base, cur string) []string {
	b, c := strings.Split(base, "\n"), strings.Split(cur, "\n")
	var bad []string
	for i := 0; i < len(b) || i < len(c); i++ {
		var bl, cl string
		if i < len(b) {
			bl = b[i]
		}
		if i < len(c) {
			cl = c[i]
		}
		if bl != cl {
			bad = append(bad, fmt.Sprintf("%s: deterministic value drifted: %s -> %s",
				name, strings.TrimSpace(bl), strings.TrimSpace(cl)))
		}
	}
	return bad
}

// CompareReports checks cur against the committed baseline base: every
// baseline entry must still exist, and neither its mean nor its p99 may
// regress (grow) by more than tol (e.g. 0.05 = 5%). Improvements pass.
// It returns one human-readable line per violation; empty means clean.
func CompareReports(base, cur Report, tol float64) []string {
	var bad []string
	if base.Experiment != cur.Experiment {
		bad = append(bad, fmt.Sprintf("experiment mismatch: baseline %q vs current %q",
			base.Experiment, cur.Experiment))
		return bad
	}
	for _, be := range base.Entries {
		ce, ok := cur.Entry(be.Name)
		if !ok {
			bad = append(bad, fmt.Sprintf("%s/%s: entry missing from current run",
				base.Experiment, be.Name))
			continue
		}
		check := func(metric string, baseV, curV float64) {
			if baseV <= 0 {
				return
			}
			if curV > baseV*(1+tol) {
				bad = append(bad, fmt.Sprintf("%s/%s: %s regressed %.2f -> %.2f us (+%.1f%%, tolerance %.1f%%)",
					base.Experiment, be.Name, metric, baseV, curV,
					(curV/baseV-1)*100, tol*100))
			}
		}
		check("mean", be.MeanUS, ce.MeanUS)
		check("p99", be.P99US, ce.P99US)
		check("p999", be.P999US, ce.P999US)
	}
	return bad
}
