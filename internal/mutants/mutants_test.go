package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"hamoffload/internal/analysis/hamlint"
)

// TestRowsApply checks every row of the table without running it: its old
// snippet occurs exactly once in its file (a refactor that moves the code
// must move the row), its guard names a registered analyzer or a package
// that exists, and its from names a line of CHANGES.md that records a change.
func TestRowsApply(t *testing.T) {
	const root = "../.."
	text, err := os.ReadFile("mutants.txt")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := parse(string(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 30 {
		t.Errorf("the table has %d rows, want at least 30", len(rows))
	}
	changes, err := os.ReadFile(filepath.Join(root, "CHANGES.md"))
	if err != nil {
		t.Fatal(err)
	}
	entries := strings.Split(string(changes), "\n")
	analyzers := map[string]bool{}
	for _, a := range hamlint.Suite() {
		analyzers[a.Name] = true
	}
	ids := map[string]bool{}
	for _, r := range rows {
		if ids[r.id] {
			t.Errorf("%s: two rows have this id", r.id)
		}
		ids[r.id] = true
		if _, err := r.mutate(root); err != nil {
			t.Error(err)
		}
		if r.old == r.new {
			t.Errorf("%s: the replacement is the snippet itself", r.id)
		}
		switch {
		case r.static != "" && !analyzers[r.static]:
			t.Errorf("%s: no analyzer is named %q", r.id, r.static)
		case r.static == "":
			if _, err := os.Stat(filepath.Join(root, r.pkg)); err != nil {
				t.Errorf("%s: guard package: %v", r.id, err)
			}
		}
		n, err := strconv.Atoi(strings.TrimPrefix(r.from, "CHANGES:"))
		if err != nil || n < 1 || n > len(entries) || entries[n-1] == "" || strings.HasPrefix(entries[n-1], "FOUND") || strings.HasPrefix(entries[n-1], "MENDED") {
			t.Errorf("%s: from %q names no change entry of CHANGES.md", r.id, r.from)
		}
	}
}
