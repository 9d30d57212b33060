package analysis

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"testing"
)

func TestLoadTypechecksPackages(t *testing.T) {
	pkgs, err := Load(".", "hamoffload/internal/units", "hamoffload/internal/simtime")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("Load returned %d packages, want 2", len(pkgs))
	}
	// Deterministic order: sorted by import path.
	if pkgs[0].Path != "hamoffload/internal/simtime" || pkgs[1].Path != "hamoffload/internal/units" {
		t.Errorf("package order = %q, %q", pkgs[0].Path, pkgs[1].Path)
	}
	for _, p := range pkgs {
		if p.Types == nil || p.TypesInfo == nil || len(p.Files) == 0 {
			t.Errorf("package %s loaded incompletely", p.Path)
		}
		if obj := p.Types.Scope().Lookup("Bytes"); p.Path == "hamoffload/internal/units" && obj == nil {
			t.Errorf("units.Bytes not found in loaded scope")
		}
	}
}

// TestAllowIndex pins the //lint:allow placement rules: the comment's own
// line (trailing), and the line after its comment group — including groups
// that wrap across several comment lines, as at the engine's Spawn site.
func TestAllowIndex(t *testing.T) {
	const src = `package p

func f() {
	g() //lint:allow walltime trailing on the same line
	//lint:allow determinism a multi-line justification that
	// continues on a second comment line
	g()
	g()
}

func g() {}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	idx, entries := buildAllowIndex(fset, []*ast.File{f})
	if len(entries) != 2 {
		t.Fatalf("buildAllowIndex found %d entries, want 2", len(entries))
	}
	cases := []struct {
		line     int
		analyzer string
		want     bool
	}{
		{4, "walltime", true},     // trailing comment suppresses its own line
		{4, "determinism", false}, // but only the named analyzer
		{7, "determinism", true},  // line after the multi-line group
		{8, "determinism", false}, // one line only
	}
	for _, c := range cases {
		d := Diagnostic{Analyzer: c.analyzer}
		d.Pos.Filename = "p.go"
		d.Pos.Line = c.line
		if got := idx.allows(d); got != c.want {
			t.Errorf("line %d %s: allows = %v, want %v", c.line, c.analyzer, got, c.want)
		}
	}
}

// TestLoadReadsOverlay: go list compiles a file's -overlay replacement, so
// Load must parse the replacement too, or an analyzer checks one text while
// the build type-checked another. The overlay adds a declaration to units;
// an analyzer that reports it finds it.
func TestLoadReadsOverlay(t *testing.T) {
	dir := t.TempDir()
	orig, err := filepath.Abs("../units/units.go")
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(orig)
	if err != nil {
		t.Fatal(err)
	}
	repl := filepath.Join(dir, "units.go")
	if err := os.WriteFile(repl, append(src, "\nvar Overlaid = 1\n"...), 0o644); err != nil {
		t.Fatal(err)
	}
	ov, _ := json.Marshal(map[string]any{"Replace": map[string]string{orig: repl}})
	ovFile := filepath.Join(dir, "overlay.json")
	if err := os.WriteFile(ovFile, ov, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Setenv("GOFLAGS", "-overlay="+ovFile)
	pkgs, err := Load(".", "hamoffload/internal/units")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	find := &Analyzer{Name: "overlaid", Run: func(p *Pass) error {
		if obj := p.Pkg.Scope().Lookup("Overlaid"); obj != nil {
			p.Reportf(obj.Pos(), "overlaid declaration")
		}
		return nil
	}}
	diags, err := Run(pkgs[0], []*Analyzer{find}, func(string, string) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || filepath.Base(diags[0].Pos.Filename) != "units.go" {
		t.Fatalf("findings under the overlay = %v, want one in units.go", diags)
	}
}
