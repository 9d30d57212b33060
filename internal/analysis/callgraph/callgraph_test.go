package callgraph_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"

	"hamoffload/internal/analysis"
	"hamoffload/internal/analysis/callgraph"
)

// load typechecks one in-memory package (no imports) and wraps it as an
// analysis.Package so Build can consume it.
func load(t *testing.T, path, src string) *analysis.Package {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, path+"/a.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	files := []*ast.File{file}
	pkg, info, err := analysis.Typecheck(fset, path, files, nil)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return &analysis.Package{Path: path, Fset: fset, Files: files, Types: pkg, TypesInfo: info}
}

const src = `package cg

type Doer interface{ Do() }

type A struct{}
func (A) Do()  { leafA() }

type B struct{}
func (*B) Do() { leafB() }

type G[T any] struct{ v T }
func (G[T]) Do() { leafG() }

var _ Doer = G[int]{}

func leafA() {}
func leafB() {}
func leafG() {}
func unrelated() {}

func static() { leafA() }

func dynamic(d Doer) { d.Do() }

func chain() { static() }

var hook = func() { leafB() }
`

func build(t *testing.T) *callgraph.Graph {
	t.Helper()
	return callgraph.Build([]*analysis.Package{load(t, "cg", src)})
}

func node(t *testing.T, g *callgraph.Graph, name string) *callgraph.Node {
	t.Helper()
	n := g.Lookup(name)
	if n == nil {
		t.Fatalf("no node %q", name)
	}
	return n
}

// reaches reports whether to is reachable from from along call edges.
func reaches(g *callgraph.Graph, from, to *callgraph.Node) bool {
	return g.PathTo(from, func(n *callgraph.Node) bool { return n == to }, nil) != nil
}

func TestStaticEdges(t *testing.T) {
	g := build(t)
	if !reaches(g, node(t, g, "cg.static"), node(t, g, "cg.leafA")) {
		t.Error("static() calls leafA() — edge missing")
	}
	if reaches(g, node(t, g, "cg.static"), node(t, g, "cg.leafB")) {
		t.Error("static() must not reach leafB()")
	}
}

func TestTransitiveReachability(t *testing.T) {
	g := build(t)
	if !reaches(g, node(t, g, "cg.chain"), node(t, g, "cg.leafA")) {
		t.Error("chain() → static() → leafA() — transitive reachability broken")
	}
	if reaches(g, node(t, g, "cg.chain"), node(t, g, "cg.unrelated")) {
		t.Error("chain() must not reach unrelated()")
	}
}

func TestInterfaceCHA(t *testing.T) {
	g := build(t)
	dyn := node(t, g, "cg.dynamic")
	// The interface call must fan out to every implementation, value and
	// pointer receiver alike, a generic type's through its instance, and on
	// through to their leaves.
	for _, leaf := range []string{"cg.leafA", "cg.leafB", "cg.leafG"} {
		if !reaches(g, dyn, node(t, g, leaf)) {
			t.Errorf("dynamic() must reach %s via CHA", leaf)
		}
	}
	if reaches(g, dyn, node(t, g, "cg.unrelated")) {
		t.Error("dynamic() must not reach unrelated()")
	}
}

func TestInitializerLits(t *testing.T) {
	g := build(t)
	if !reaches(g, node(t, g, "cg.init"), node(t, g, "cg.leafB")) {
		t.Error("package-level var hook literal must be attributed to cg.init")
	}
}

func TestPathTo(t *testing.T) {
	g := build(t)
	path := g.PathTo(node(t, g, "cg.chain"),
		func(n *callgraph.Node) bool { return n.Name == "cg.leafA" }, nil)
	if len(path) != 2 {
		t.Fatalf("PathTo returned %d edges, want 2 (chain→static→leafA)", len(path))
	}
	if path[0].Callee.Name != "cg.static" || path[1].Callee.Name != "cg.leafA" {
		t.Errorf("path = %s → %s", path[0].Callee.Name, path[1].Callee.Name)
	}
	// A through-predicate that forbids expanding static() must cut the path.
	blocked := g.PathTo(node(t, g, "cg.chain"),
		func(n *callgraph.Node) bool { return n.Name == "cg.leafA" },
		func(n *callgraph.Node) bool { return n.Name != "cg.static" })
	if blocked != nil {
		t.Error("through-predicate must prevent traversal beyond static()")
	}
}

func TestDefinedFlag(t *testing.T) {
	g := build(t)
	if !node(t, g, "cg.leafA").Defined {
		t.Error("leafA is defined in the loaded package")
	}
}
