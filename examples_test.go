package hamoffload_test

import (
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestExamples builds every program under examples/ once and runs each, in
// parallel: every example is its own process. An example checks its own
// result against a host reference and exits non-zero on a mismatch, so a
// clean exit is the assertion; -v shows what it printed. `make examples` is
// this test.
func TestExamples(t *testing.T) {
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./examples/...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("%v: %v\n%s", build, err, out)
	}
	dirs, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		t.Run(d.Name(), func(t *testing.T) {
			t.Parallel()
			out, err := exec.Command(filepath.Join(bin, d.Name())).CombinedOutput()
			if err != nil {
				t.Fatalf("examples/%s: %v\n%s", d.Name(), err, out)
			}
			t.Logf("\n%s", out)
		})
	}
}

// TestExamplesUsePublicAPI checks that every example imports from this module
// only the packages an application may use: offload, machine and gateway.
// tcpcluster also imports internal/backend/tcpb, because no public TCP entry
// point exists yet.
func TestExamplesUsePublicAPI(t *testing.T) {
	public := map[string]bool{"hamoffload/offload": true, "hamoffload/machine": true, "hamoffload/gateway": true}
	files, err := filepath.Glob("examples/*/main.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no examples/*/main.go: %v", err)
	}
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if !strings.HasPrefix(path, "hamoffload/") || public[path] ||
				file == filepath.Join("examples", "tcpcluster", "main.go") && path == "hamoffload/internal/backend/tcpb" {
				continue
			}
			t.Errorf("%s imports %s, which is not public API", file, path)
		}
	}
}
