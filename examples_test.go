package hamoffload_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestExamples builds every program under examples/ once and runs each. An
// example checks its own result against a host reference and exits non-zero
// on a mismatch, so a clean exit is the assertion; -v shows what it printed.
// `make examples` is this test.
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
			out, err := exec.Command(filepath.Join(bin, d.Name())).CombinedOutput()
			if err != nil {
				t.Fatalf("examples/%s: %v\n%s", d.Name(), err, out)
			}
			t.Logf("\n%s", out)
		})
	}
}
