package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
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
