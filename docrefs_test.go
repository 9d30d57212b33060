package hamoffload_test

import (
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"hamoffload/bench"
)

var (
	// docExample is a path to an example program cited in prose.
	docExample = regexp.MustCompile(`\bexamples/([A-Za-z0-9_]+)`)
	// docTestName is a cited test, benchmark or fuzz target; a trailing *
	// makes it a prefix.
	docTestName = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9]\w*\*?`)
	// docPatternFlag is a `go test` flag whose argument is a name pattern:
	// a name after it on the same line is a prefix too.
	docPatternFlag = regexp.MustCompile(`-(?:run|bench|fuzz|skip)[= ]`)
	// testFunc declares a test, benchmark or fuzz target.
	testFunc = regexp.MustCompile(`^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	// docExperiment is a cited hambench experiment; a trailing { or * makes
	// it a prefix (ablate-{poll,buffers}, ablate-*).
	docExperiment = regexp.MustCompile(`hambench -exp ([A-Za-z0-9_-]+)([{*]?)`)
	// readmeExampleRow is a row of README's Examples table.
	readmeExampleRow = regexp.MustCompile("^\\| `examples/([A-Za-z0-9_]+)` \\|")
	// docSample is a cited sample output.
	docSample = regexp.MustCompile(`sample-output/([A-Za-z0-9_-]+)\.txt`)
	// docCode is an inline code span.
	docCode = regexp.MustCompile("`[^`]+`")
	// docAPIName is an exported name of a public package, then perhaps a
	// field or method of it.
	docAPIName = regexp.MustCompile(`\b(offload|sched|gateway|health|machine)\.([A-Z]\w*)(?:\.([A-Za-z_]\w*))?`)
)

// TestDocReferences checks that the user-facing documents cite only names
// that exist: every examples/NAME is a directory, every TestX, BenchmarkX
// and FuzzX is a func in some _test.go file, every `hambench -exp NAME` is a
// row of bench.Experiments (or all), every sample-output/NAME.txt is a
// file, and every `offload.X`, `sched.X`, `gateway.X`, `health.X` and
// `machine.X` in a code span that is not a test is declared, as is the
// field or method of X a further .Y names. CHANGES.md and ROADMAP.md record
// history, so they may name what is gone.
func TestDocReferences(t *testing.T) {
	api := map[string]*types.Package{} // the public packages, by their names
	for _, pkg := range modulePackages(t) {
		if rel := strings.TrimPrefix(pkg.Path, reachModule+"/"); slices.Contains(reachPublic, rel) {
			api[path.Base(rel)] = pkg.Types
		}
	}
	var funcs []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		for _, line := range fileLines(t, path) {
			if m := testFunc.FindStringSubmatch(line); m != nil {
				funcs = append(funcs, m[1])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range append([]string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}, docs...) {
		for i, line := range fileLines(t, doc) {
			n := i + 1
			for _, m := range docExample.FindAllStringSubmatch(line, -1) {
				if fi, err := os.Stat(filepath.Join("examples", m[1])); err != nil || !fi.IsDir() {
					t.Errorf("%s:%d: cites %s, which is not an example directory", doc, n, m[0])
				}
			}
			for _, m := range docExperiment.FindAllStringSubmatch(line, -1) {
				if !experiment(m[1], m[2] != "") {
					t.Errorf("%s:%d: cites %s, which names no row of bench.Experiments", doc, n, m[0])
				}
			}
			for _, m := range docSample.FindAllStringSubmatch(line, -1) {
				if _, err := os.Stat(filepath.Join("docs", "sample-output", m[1]+".txt")); err != nil {
					t.Errorf("%s:%d: cites %s, which is not a sample output", doc, n, m[0])
				}
			}
			for _, code := range docCode.FindAllString(line, -1) {
				for _, m := range docAPIName.FindAllStringSubmatch(code, -1) {
					if !docTestName.MatchString(m[2]) && !apiDeclared(api[m[1]], m[2], m[3]) {
						t.Errorf("%s:%d: cites %s, which is not declared", doc, n, m[0])
					}
				}
			}
			for _, loc := range docTestName.FindAllStringIndex(line, -1) {
				name := line[loc[0]:loc[1]]
				prefix := strings.HasSuffix(name, "*") || docPatternFlag.MatchString(line[:loc[0]])
				name = strings.TrimSuffix(name, "*")
				if !declared(funcs, name, prefix) {
					t.Errorf("%s:%d: cites %s, which no _test.go file declares", doc, n, line[loc[0]:loc[1]])
				}
			}
		}
	}
}

// TestReadmeExamples checks that README's Examples table has one row per
// examples/ directory and no other rows.
func TestReadmeExamples(t *testing.T) {
	readme := strings.Join(fileLines(t, "README.md"), "\n")
	_, table, ok := strings.Cut(readme, "## Examples\n\n| Example | What it demonstrates |\n|---|---|\n")
	if !ok {
		t.Fatal("README.md has no Examples table")
	}
	rows := map[string]int{}
	for _, row := range strings.Split(table, "\n") {
		if !strings.HasPrefix(row, "|") {
			break
		}
		m := readmeExampleRow.FindStringSubmatch(row)
		if m == nil {
			t.Errorf("README.md Examples row %q names no examples/ directory", row)
			continue
		}
		rows[m[1]]++
	}
	dirs, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if d.IsDir() && rows[d.Name()] != 1 {
			t.Errorf("README.md Examples table lists examples/%s %d times, want once", d.Name(), rows[d.Name()])
		}
		delete(rows, d.Name())
	}
	for name := range rows {
		t.Errorf("README.md Examples table lists examples/%s, which is not an example directory", name)
	}
}

// experiment reports whether name is all or a row of bench.Experiments, or,
// as a prefix, begins a row's name.
func experiment(name string, prefix bool) bool {
	if name == "all" {
		return true
	}
	for _, e := range bench.Experiments {
		if e.Name == name || prefix && strings.HasPrefix(e.Name, name) {
			return true
		}
	}
	return false
}

// TestReadmeHeadline checks that README's headline block quotes the sample
// outputs: every line is a line of docs/sample-output/fig9.txt, cut before
// its bar (" |"), or a line of calibration.txt, so a change to the model
// that moves a headline number also fails here until the block is redone.
func TestReadmeHeadline(t *testing.T) {
	sample := map[string]bool{}
	for _, l := range fileLines(t, "docs/sample-output/fig9.txt") {
		l, _, _ = strings.Cut(l, " |")
		sample[l] = true
	}
	for _, l := range fileLines(t, "docs/sample-output/calibration.txt") {
		sample[l] = true
	}
	readme := strings.Join(fileLines(t, "README.md"), "\n")
	_, block, ok := strings.Cut(readme, "## Headline results (simulated, deterministic)\n\n```\n")
	block, _, closed := strings.Cut(block, "\n```")
	if !ok || !closed || block == "" {
		t.Fatal("README.md has no fenced block under its headline results")
	}
	for _, l := range strings.Split(block, "\n") {
		if l != "" && !sample[l] {
			t.Errorf("README.md headline line %q is no line of fig9.txt or calibration.txt", l)
		}
	}
}

// apiDeclared reports whether pkg declares name and, when sel is not empty,
// whether the type name declares has a field or method sel. A sel of
// anything but a type is not checked.
func apiDeclared(pkg *types.Package, name, sel string) bool {
	obj := pkg.Scope().Lookup(name)
	if obj == nil {
		return false
	}
	if tn, ok := obj.(*types.TypeName); ok && sel != "" {
		found, _, _ := types.LookupFieldOrMethod(tn.Type(), true, pkg, sel)
		return found != nil
	}
	return true
}

// declared reports whether funcs holds name, or a name it prefixes.
func declared(funcs []string, name string, prefix bool) bool {
	for _, f := range funcs {
		if f == name || prefix && strings.HasPrefix(f, name) {
			return true
		}
	}
	return false
}

// fileLines returns the lines of the file at path.
func fileLines(t *testing.T, path string) []string {
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(string(b), "\n")
}
