package hamlint_test

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"hamoffload/internal/analysis/hamlint"
)

// TestSuiteRegistration pins the registered analyzer set to the documented
// one: adding, removing or renaming an analyzer must update docs/LINTING.md
// and this list together.
func TestSuiteRegistration(t *testing.T) {
	want := []string{
		"walltime", "spanend", "determinism", "unitcast", "flagorder",
		"acqrel", "afterfree", "borrowck", "allowcheck",
	}
	var got []string
	moduleRunners := 0
	for _, a := range hamlint.Suite() {
		got = append(got, a.Name)
		if a.Doc == "" {
			t.Errorf("analyzer %s has no Doc", a.Name)
		}
		if a.Run == nil && a.RunModule == nil {
			t.Errorf("analyzer %s has neither Run nor RunModule", a.Name)
		}
		if a.RunModule != nil {
			moduleRunners++
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("registered analyzers = %v, want %v", got, want)
	}
	// walltime carries the interprocedural phase; losing it would silently
	// drop the call-graph check.
	if moduleRunners == 0 {
		t.Error("no analyzer registers a module-wide (RunModule) phase; walltime should")
	}
}

// TestSelfLint runs the full suite over the repository: the tree must stay
// clean so that a regression against any invariant fails CI here as well as
// in `make lint`.
func TestSelfLint(t *testing.T) {
	if testing.Short() {
		t.Skip("self-lint type-checks the whole module")
	}
	var buf bytes.Buffer
	if code := hamlint.Main(".", []string{"hamoffload/..."}, &buf, hamlint.Options{}); code != 0 {
		t.Fatalf("hamlint over the repository: exit %d\n%s", code, buf.String())
	}
}

// TestEmptyPackageSet pins the hard-error contract: a pattern matching
// nothing must exit 2 with a clear message, not report a deceptive clean
// run.
func TestEmptyPackageSet(t *testing.T) {
	var buf bytes.Buffer
	code := hamlint.Main(".", []string{"hamoffload/internal/nosuchdir/..."}, &buf, hamlint.Options{})
	if code != 2 {
		t.Fatalf("empty package set: exit %d, want 2\n%s", code, buf.String())
	}
	if !strings.Contains(buf.String(), "matched no packages") {
		t.Errorf("empty package set message = %q, want it to say 'matched no packages'", buf.String())
	}
}

// TestRunSelection pins the -run contract: a known subset runs clean over a
// clean package, and an unknown name is a usage error (exit 2) naming the
// bad analyzer rather than a silent no-op run.
func TestRunSelection(t *testing.T) {
	if testing.Short() {
		t.Skip("loads real packages")
	}
	var buf bytes.Buffer
	code := hamlint.Main(".", []string{"hamoffload/internal/backend/slots"}, &buf,
		hamlint.Options{Run: []string{"walltime", "flagorder"}})
	if code != 0 {
		t.Fatalf("-run walltime,flagorder on slots: exit %d\n%s", code, buf.String())
	}
	buf.Reset()
	code = hamlint.Main(".", []string{"hamoffload/internal/backend/slots"}, &buf,
		hamlint.Options{Run: []string{"nosuchanalyzer"}})
	if code != 2 {
		t.Fatalf("unknown -run name: exit %d, want 2\n%s", code, buf.String())
	}
	if !strings.Contains(buf.String(), "nosuchanalyzer") {
		t.Errorf("unknown -run message %q does not name the bad analyzer", buf.String())
	}
}

// TestList pins the -list -json shape: one entry per registered analyzer,
// suite order, with the module-wide flag set for the interprocedural ones.
func TestList(t *testing.T) {
	entries := hamlint.List()
	suite := hamlint.Suite()
	if len(entries) != len(suite) {
		t.Fatalf("List() has %d entries, Suite() has %d", len(entries), len(suite))
	}
	for i, e := range entries {
		if e.Name != suite[i].Name {
			t.Errorf("List()[%d] = %s, want %s", i, e.Name, suite[i].Name)
		}
		if e.ModuleWide != (suite[i].RunModule != nil) {
			t.Errorf("List()[%d].ModuleWide = %v, disagrees with Suite", i, e.ModuleWide)
		}
	}
	data, err := json.Marshal(entries)
	if err != nil {
		t.Fatalf("List() must marshal: %v", err)
	}
	if !strings.Contains(string(data), `"module_wide":true`) {
		t.Error("no module-wide analyzer in List() output; walltime and borrowck should be")
	}
}

// TestJSONOutput runs one real package in -json mode and checks the output
// decodes as the documented array shape (empty but non-null on a clean
// package).
func TestJSONOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("loads real packages")
	}
	var buf bytes.Buffer
	code := hamlint.Main(".", []string{"hamoffload/internal/backend/slots"}, &buf, hamlint.Options{JSON: true})
	if code != 0 {
		t.Fatalf("slots package should be clean: exit %d\n%s", code, buf.String())
	}
	var diags []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Column   int    `json:"column"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal(buf.Bytes(), &diags); err != nil {
		t.Fatalf("-json output does not decode: %v\n%s", err, buf.String())
	}
	if strings.TrimSpace(buf.String()) == "null" {
		t.Error("-json must emit [] for a clean run, not null")
	}
}

// TestStatsOutput runs one real package in -stats mode, text and JSON: every
// registered analyzer must appear exactly once with a timing, and the JSON
// form must carry both the findings array and the stats rows.
func TestStatsOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("loads real packages")
	}
	var buf bytes.Buffer
	code := hamlint.Main(".", []string{"hamoffload/internal/backend/slots"}, &buf,
		hamlint.Options{Stats: true})
	if code != 0 {
		t.Fatalf("slots package should be clean: exit %d\n%s", code, buf.String())
	}
	text := buf.String()
	if !strings.Contains(text, "hamlint stats") {
		t.Errorf("-stats text output lacks the stats header:\n%s", text)
	}
	for _, a := range hamlint.Suite() {
		if !strings.Contains(text, a.Name) {
			t.Errorf("-stats text output lacks a row for %s:\n%s", a.Name, text)
		}
	}

	buf.Reset()
	code = hamlint.Main(".", []string{"hamoffload/internal/backend/slots"}, &buf,
		hamlint.Options{JSON: true, Stats: true})
	if code != 0 {
		t.Fatalf("slots package should be clean: exit %d\n%s", code, buf.String())
	}
	var out struct {
		Findings []json.RawMessage `json:"findings"`
		Stats    []hamlint.AnalyzerStat
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("-json -stats output does not decode: %v\n%s", err, buf.String())
	}
	if out.Findings == nil {
		t.Error("-json -stats must carry a non-null findings array")
	}
	if len(out.Stats) != len(hamlint.Suite()) {
		t.Errorf("-json -stats has %d stat rows, want one per analyzer (%d)",
			len(out.Stats), len(hamlint.Suite()))
	}
	for _, s := range out.Stats {
		if s.Nanos < 0 {
			t.Errorf("analyzer %s reports negative time %d", s.Name, s.Nanos)
		}
	}
}
