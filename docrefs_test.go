package hamoffload_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
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
)

// TestDocReferences checks that the user-facing documents cite only names
// that exist: every examples/NAME is a directory, and every TestX,
// BenchmarkX and FuzzX is a func in some _test.go file. CHANGES.md and
// ROADMAP.md record history, so they may name what is gone.
func TestDocReferences(t *testing.T) {
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
