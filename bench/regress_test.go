package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hamoffload/machine"
)

// TestBatchAmortisation is the design target of docs/BATCHING.md as a
// tier-1 test: a 16-message batch's amortised per-message empty-offload
// cost must be at most half the single-message DMA-protocol cost (the
// committed baseline says it is ~8%).
func TestBatchAmortisation(t *testing.T) {
	r, err := Batch(machine.World{}, BatchConfig{Reps: 10, Warmup: 3, Sizes: []int{1, 16}})
	if err != nil {
		t.Fatal(err)
	}
	if r.SingleUS < 4 || r.SingleUS > 8 {
		t.Errorf("single-message baseline %.2f us drifted from the Fig. 9 ballpark (5.93)", r.SingleUS)
	}
	var b1, b16 *BatchPoint
	for i := range r.Points {
		switch r.Points[i].BatchSize {
		case 1:
			b1 = &r.Points[i]
		case 16:
			b16 = &r.Points[i]
		}
	}
	if b1 == nil || b16 == nil {
		t.Fatalf("sweep missing sizes: %+v", r.Points)
	}
	// A batch of one pays only the 8-byte frame header: within a few
	// percent of the plain protocol.
	if b1.PerMsgUS > r.SingleUS*1.10 {
		t.Errorf("batch of 1 costs %.2f us vs single %.2f us (>10%% framing overhead)",
			b1.PerMsgUS, r.SingleUS)
	}
	if b16.PerMsgUS > r.SingleUS*0.5 {
		t.Errorf("batch of 16 amortised to %.2f us/msg vs single %.2f us — above the 50%% target",
			b16.PerMsgUS, r.SingleUS)
	}
}

// TestExperimentTable pins the table and the regression rules every row
// shares, without running an experiment: the gates as data, Regress's two
// comparison rules, and the table's bookkeeping against the repo root.
func TestExperimentTable(t *testing.T) {
	t.Run("stats", func(t *testing.T) {
		s := NewStats([]float64{5, 1, 4, 2, 3})
		if s.N != 5 || s.MeanUS != 3 || s.P50US != 3 || s.P99US != 5 {
			t.Fatalf("NewStats = %+v", s)
		}
		if z := (NewStats(nil)); z.N != 0 || z.MeanUS != 0 {
			t.Fatalf("NewStats(nil) = %+v", z)
		}
	})

	// Every gate in the table, on synthetic reports either side of its Max.
	t.Run("gates", func(t *testing.T) {
		gates := 0
		for _, e := range Experiments {
			for _, g := range e.Gates {
				gates++
				report := func(ratio float64) Report {
					den := Stats{MeanUS: 100, P99US: 100, P999US: 100}
					num := Stats{MeanUS: 100 * ratio, P99US: 100 * ratio, P999US: 100 * ratio}
					return Report{Experiment: e.Name, Entries: []ReportEntry{
						{Name: g.Den, Stats: den}, {Name: g.Num, Stats: num}}}
				}
				if line, err := g.Check(report(g.Max * 0.99)); err != nil {
					t.Errorf("%s: just inside Max fails: %v", e.Name, err)
				} else if !strings.Contains(line, g.Num) || !strings.Contains(line, g.Den) {
					t.Errorf("%s: ratio line %q does not name both entries", e.Name, line)
				}
				if _, err := g.Check(report(g.Max)); err != nil {
					t.Errorf("%s: a ratio equal to Max fails: %v", e.Name, err)
				}
				_, err := g.Check(report(g.Max * 1.01))
				if err == nil || !strings.Contains(err.Error(), g.Num) || !strings.Contains(err.Error(), g.Den) {
					t.Errorf("%s: just outside Max = %v, want a failure naming both entries", e.Name, err)
				}
				for _, missing := range []string{g.Num, g.Den} {
					r := report(g.Max / 2)
					for i := range r.Entries {
						if r.Entries[i].Name == missing {
							r.Entries[i].Name = "renamed"
						}
					}
					if _, err := g.Check(r); err == nil || !strings.Contains(err.Error(), missing) {
						t.Errorf("%s: report without %q = %v, want an error naming it", e.Name, missing, err)
					}
				}
				// A violated gate fails Regress before anything is written.
				dir := t.TempDir()
				row := Experiment{Name: e.Name, Gates: e.Gates,
					Measure: func() (any, error) { return report(g.Max * 1.01), nil }}
				if _, err := row.Regress(dir, false, 0); err == nil {
					t.Errorf("%s: Regress wrote a baseline that violates its gate", e.Name)
				}
				if _, err := os.Stat(filepath.Join(dir, row.BaselineFile())); err == nil {
					t.Errorf("%s: baseline exists after a failed gate", e.Name)
				}
			}
		}
		if gates < 3 {
			t.Errorf("table carries %d gates, want the three design targets", gates)
		}
	})

	// Regress on a Report: stat by stat within tol, improvements pass.
	t.Run("regress-report", func(t *testing.T) {
		base := Report{Experiment: "unit", Entries: []ReportEntry{
			{Name: "op-a", Stats: Stats{N: 3, MeanUS: 10, P50US: 9, P99US: 12}},
			{Name: "op-b", Stats: Stats{N: 3, MeanUS: 2, P50US: 2, P99US: 2.5}},
		}}
		cur := base
		row := Experiment{Name: "unit", Measure: func() (any, error) { return cur, nil }}
		dir := t.TempDir()
		if _, err := row.Regress(dir, true, 0); err == nil {
			t.Fatal("check against a missing baseline passed")
		}
		if _, err := row.Regress(dir, false, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := row.Regress(dir, true, 0); err != nil {
			t.Fatalf("round-tripped baseline does not compare clean: %v", err)
		}
		// Within tolerance passes; beyond it fails, naming the stat.
		cur = Report{Experiment: "unit", Entries: []ReportEntry{
			{Name: "op-a", Stats: Stats{N: 3, MeanUS: 10.4, P50US: 9, P99US: 12}},
			{Name: "op-b", Stats: Stats{N: 3, MeanUS: 2, P50US: 2, P99US: 4}},
		}}
		_, err := row.Regress(dir, true, 0.05)
		if err == nil || !strings.Contains(err.Error(), "1 value(s)") ||
			!strings.Contains(err.Error(), "op-b") || !strings.Contains(err.Error(), "p99") {
			t.Fatalf("Regress(tol 5%%) = %v, want exactly the op-b p99 regression", err)
		}
		// Improvements never fail.
		cur = Report{Experiment: "unit", Entries: []ReportEntry{
			{Name: "op-a", Stats: Stats{N: 3, MeanUS: 5, P50US: 4, P99US: 6}},
			{Name: "op-b", Stats: Stats{N: 3, MeanUS: 1, P50US: 1, P99US: 1}},
		}}
		if _, err := row.Regress(dir, true, 0); err != nil {
			t.Fatalf("improvement flagged as regression: %v", err)
		}
		// Missing entries and experiment mismatches are violations.
		if bad := CompareReports(base, Report{Experiment: "unit"}, 0.5); len(bad) != 2 {
			t.Fatalf("missing entries = %v, want 2 violations", bad)
		}
		if bad := CompareReports(base, Report{Experiment: "other"}, 0.5); len(bad) != 1 {
			t.Fatalf("experiment mismatch = %v", bad)
		}
	})

	// Regress on anything else: byte for byte, whatever the tolerance.
	t.Run("regress-exact", func(t *testing.T) {
		cur := EngineReport{Experiment: "engine", Offloads: 72, VEs: 4, Events: 1000, SimTimeUS: 12.5, MaxQueueDepth: 5}
		row := Experiment{Name: "exact", Measure: func() (any, error) { return cur, nil }}
		dir := t.TempDir()
		if _, err := row.Regress(dir, false, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := row.Regress(dir, true, 0); err != nil {
			t.Fatalf("round-tripped baseline does not compare clean: %v", err)
		}
		cur.Events-- // an improvement by any reading, and still drift
		_, err := row.Regress(dir, true, 0.5)
		if err == nil || !strings.Contains(err.Error(), "1 value(s)") || !strings.Contains(err.Error(), `"events"`) {
			t.Fatalf("one-field change = %v, want exactly the events field reported", err)
		}
	})

	// The table against the repo: unique names, Lookup, a pinned sample output
	// per Run row (`make samples-check` covers the converse), one committed
	// baseline per Measure row and no baseline without a row.
	t.Run("bookkeeping", func(t *testing.T) {
		seen, want := map[string]bool{}, map[string]bool{}
		for _, e := range Experiments {
			if seen[e.Name] {
				t.Errorf("duplicate experiment name %q", e.Name)
			}
			seen[e.Name] = true
			if got, ok := Lookup(e.Name); !ok || got.Name != e.Name {
				t.Errorf("Lookup(%q) = %+v, %v", e.Name, got, ok)
			}
			if e.Doc == "" || (e.Run == nil && e.Measure == nil) {
				t.Errorf("row %q has no Doc or does nothing", e.Name)
			}
			if len(e.Gates) > 0 && e.Measure == nil {
				t.Errorf("row %q has gates but nothing to check them on", e.Name)
			}
			if _, err := os.Stat(filepath.Join("..", "docs", "sample-output", e.Name+".txt")); e.Run != nil && err != nil {
				t.Errorf("row %q has no sample output for `make samples` to pin: %v", e.Name, err)
			}
			if e.Measure == nil {
				continue
			}
			want[e.BaselineFile()] = true
			if _, err := os.Stat(filepath.Join("..", e.BaselineFile())); err != nil {
				t.Errorf("row %q has no committed baseline: %v", e.Name, err)
			}
		}
		if _, ok := Lookup("no-such-experiment"); ok {
			t.Error("Lookup found a name that is not in the table")
		}
		committed, err := filepath.Glob(filepath.Join("..", "BENCH_*.json"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range committed {
			if !want[filepath.Base(path)] {
				t.Errorf("%s is committed but no table row measures it", path)
			}
		}
	})
}
