package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hamoffload/internal/trace"
)

// testOps is each workload at about 1/1000 of its benchmark size, rounded to
// the workload's own granularity (a 64-op class block, a 512-task wave).
var testOps = map[string]int{wSyncDMA: 200, wDataVEO: 64, wPipeBatch: 512, wServePeak: 2000}

func mustRound(t *testing.T, w *workload, seed uint64, tr *trace.Tracer, spans *spanLog) *round {
	t.Helper()
	r, err := runRound(w, seed, testOps[w.name], tr, spans)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Fatalf("%s: %d ops returned a wrong result", w.name, r.failed)
	}
	return r
}

// TestSeedReachesInputs: another seed is another run. (That one seed repeats
// exactly, traced or not, is measureEndToEnd's and measureLayers' own gate,
// exercised by TestRunsInSmall.)
func TestSeedReachesInputs(t *testing.T) {
	w := findWorkload(wServePeak)
	if a, b := mustRound(t, w, 1, nil, nil), mustRound(t, w, 2, nil, nil); a.fp == b.fp {
		t.Errorf("seeds 1 and 2 share the fingerprint %016x", a.fp)
	}
}

var update = flag.Bool("update", false, "rewrite ../../BENCHMARK.json from the declarations in metrics.go")

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestLayer    `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type manifestLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// declaredManifest is BENCHMARK.json as metrics.go declares it.
func declaredManifest() manifest {
	m := manifest{
		Command:    []string{"go", "run", "./bench/perf"},
		Paths:      []string{"bench/perf"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWorkload{w.name, w.why})
	}
	for _, e := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, manifestMetric{e.Name, e.Unit, e.Better, e.Bound})
	}
	for _, l := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestLayer{l.Name, l.Unit, l.Better})
	}
	return m
}

// TestManifestMatchesDeclarations keeps BENCHMARK.json and metrics.go one
// declaration: same workloads, metrics, units, directions and bounds.
// go test ./bench/perf -run Manifest -update rewrites the file.
func TestManifestMatchesDeclarations(t *testing.T) {
	path := filepath.Join("..", "..", "BENCHMARK.json")
	want := declaredManifest()
	if *update {
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the declarations in metrics.go; rerun with -update and review the diff")
	}
}

// TestDeclarationsAreSound checks names, units and that every per-layer
// metric's predicted effect names a real end-to-end metric and workload.
func TestDeclarationsAreSound(t *testing.T) {
	seen := map[string]bool{}
	check := func(m metric) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("name %q is used twice", m.Name)
		}
		seen[m.Name] = true
		if m.Unit == "" || len(m.Unit) > 16 || strings.Trim(m.Unit, "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_/%.-") != "" {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	e2e := map[string]bool{}
	for _, e := range endToEnd {
		check(e)
		e2e[e.Name] = true
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
	}
	if !e2e["setup_s"] {
		t.Error("no setup_s among the end-to-end metrics")
	}
	for _, w := range workloads {
		check(metric{Name: w.name, Unit: "-", Better: "lower"})
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	for _, l := range perLayer {
		check(l.metric)
		if !strings.HasPrefix(l.Name, l.Layer+".") || l.Layer == "" {
			t.Errorf("%s: layer %q is not its name's prefix", l.Name, l.Layer)
		}
		if !strings.Contains("CTWD", l.Source) || len(l.Source) != 1 {
			t.Errorf("%s: source %q", l.Name, l.Source)
		}
		for _, w := range l.On {
			if findWorkload(w) == nil {
				t.Errorf("%s: measured on unknown workload %q", l.Name, w)
			}
		}
		for _, mv := range l.Moves {
			if !e2e[mv.Metric] || findWorkload(mv.Workload) == nil {
				t.Errorf("%s: predicted to move %s on %s, which is not declared", l.Name, mv.Metric, mv.Workload)
			}
		}
	}
}

// TestRunsInSmall runs both modes end to end at 1/1000 scale. The run itself
// fails when two rounds, or the traced and the untraced round, disagree on
// the fingerprint; the test adds that the result carries exactly the declared
// names (selfCheck), positive end-to-end values and a readable trace file.
func TestRunsInSmall(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			rec := record{Workload: w.name}
			var err error
			if rec.Report, rec.Runs, err = measureEndToEnd(w, 1, testOps[w.name], 0); err != nil {
				t.Fatal(err)
			}
			if err := selfCheck(&rec); err != nil {
				t.Error(err)
			}
			for name, v := range rec.Report.Metrics {
				if v.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v; every one must be positive on every workload", name, v.Value)
				}
			}
			if !rec.Report.Correct || rec.Report.Failed != 0 {
				t.Errorf("report: correct=%v failed=%d", rec.Report.Correct, rec.Report.Failed)
			}

			rec = record{Workload: w.name, Trace: 1}
			out := filepath.Join(t.TempDir(), "spans.json")
			if rec.Report, err = measureLayers(w, 1, testOps[w.name], 1000, out); err != nil {
				t.Fatal(err)
			}
			if err := selfCheck(&rec); err != nil {
				t.Error(err)
			}
			for j := range perLayer {
				l := &perLayer[j]
				v := rec.Report.Metrics[l.Name].Value
				if on := measuredOn(l, w.name); !on && v != 0 {
					t.Errorf("%s = %v on %s, where it is not measured", l.Name, v, w.name)
				}
			}
			var spans []span
			data, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(data, &spans); err != nil || len(spans) == 0 {
				t.Errorf("trace file: %d spans, err %v", len(spans), err)
			}
		})
	}
}

// TestReadmeNamesEveryMetric keeps the glossary complete.
func TestReadmeNamesEveryMetric(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(data)
	for _, e := range endToEnd {
		if !strings.Contains(readme, "`"+e.Name+"`") {
			t.Errorf("README.md does not explain %s", e.Name)
		}
	}
	for _, l := range perLayer {
		if !strings.Contains(readme, "`"+l.Name+"`") {
			t.Errorf("README.md does not explain %s", l.Name)
		}
	}
	for _, w := range workloads {
		if !strings.Contains(readme, "`"+w.name+"`") {
			t.Errorf("README.md does not explain workload %s", w.name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 12], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{12, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
	if q1, q3 = quartiles([]float64{10, 20}); q1 != 7.5 || q3 != 22.5 {
		t.Errorf("quartiles of two = %v, %v; want 7.5, 22.5", q1, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, wall []float64, p50 float64) string {
		path := filepath.Join(dir, name)
		for _, v := range wall {
			rec := record{Workload: wSyncDMA, Report: report{Correct: true, Attempted: 1, Metrics: map[string]value{}}}
			for _, e := range endToEnd {
				rec.Report.Metrics[e.Name] = value{1, e.Unit}
			}
			rec.Report.Metrics["wall_ops_per_s"] = value{v, "ops/s"}
			rec.Report.Metrics["sim_lat_p50_us"] = value{p50, "sim_us"}
			if err := appendRecord(path, &rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("base", []float64{100, 101, 99, 100}, 6)
	for _, tc := range []struct {
		name  string
		wall  []float64
		p50   float64
		worse bool
		want  string
	}{
		{"same", []float64{100, 99, 101, 100}, 6, false, "wall_ops_per_s       sync-dma"},
		{"slower", []float64{60, 61, 59, 60}, 6, true, "worse"},
		{"noisy", []float64{40, 100, 160, 100}, 6, false, "unresolved"},
		{"sim-moved", []float64{100, 99, 101, 100}, 6.2, true, "worse"},
	} {
		var out bytes.Buffer
		worse, err := compareFiles(&out, base, write(tc.name, tc.wall, tc.p50))
		if err != nil {
			t.Fatal(err)
		}
		if worse != tc.worse || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: worse=%v, want %v with %q in:\n%s", tc.name, worse, tc.worse, tc.want, out.String())
		}
	}
}
