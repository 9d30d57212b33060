// Package callgraph builds a type-based (CHA-style) call graph over every
// package loaded for analysis, with reachability queries for the
// interprocedural analyzers.
//
// Resolution is deliberately conservative:
//
//   - Static calls (package functions and concrete methods) produce one edge.
//   - Interface method calls produce an edge to the interface method plus one
//     edge to the corresponding method of every named type in the loaded
//     packages that implements the interface (class-hierarchy analysis).
//   - Calls inside function literals are attributed to the enclosing declared
//     function; literals in package-level variable initializers are
//     attributed to a synthetic per-package "init" node.
//
// Nodes are keyed by the callee's full name (types.Func.FullName), not by
// object identity: the loader type-checks root packages from source but
// resolves their dependencies from export data, so the same function is
// represented by distinct types.Func objects depending on which side of an
// import it is seen from. The full name is identical in both views.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"

	"hamoffload/internal/analysis"
)

// A Node is one function (or synthetic package initializer) in the graph.
type Node struct {
	// Name is the stable identity: types.Func.FullName for real functions
	// (e.g. "time.Now", "(hamoffload/internal/trace.Tracer).Span"), or
	// "<pkgpath>.init" for the synthetic initializer node.
	Name string
	// PkgPath is the import path of the package owning the function.
	PkgPath string
	// Func is a representative types.Func (nil for synthetic init nodes).
	// When the function is seen both from source and from export data, the
	// source-checked object wins.
	Func *types.Func
	// Defined reports whether the function's body was loaded from source
	// (i.e. it belongs to an analyzed root package). Undefined nodes — the
	// standard library, export-data-only dependencies — are leaves.
	Defined bool
	// Out lists the calls made by this function, in source order.
	Out []*Edge
}

// An Edge is one resolved call.
type Edge struct {
	Caller, Callee *Node
	// Site is the call position. For CHA-resolved interface calls every
	// candidate implementation gets an edge carrying the same site.
	Site token.Pos
}

// A Graph is the call graph of one loaded module.
type Graph struct {
	Fset  *token.FileSet
	nodes map[string]*Node
}

// Build constructs the call graph of pkgs. The packages should come from one
// analysis.Load call (shared fset); pass them in the loader's order for
// deterministic edge ordering.
func Build(pkgs []*analysis.Package) *Graph {
	g := &Graph{nodes: map[string]*Node{}}
	if len(pkgs) > 0 {
		g.Fset = pkgs[0].Fset
	}
	impls := implementers(pkgs)
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn, _ := pkg.TypesInfo.Defs[d.Name].(*types.Func)
					if fn == nil || d.Body == nil {
						continue
					}
					caller := g.node(fn.FullName(), pkg.Path, fn)
					caller.Defined = true
					g.addCalls(caller, d.Body, pkg, impls)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						vs, ok := spec.(*ast.ValueSpec)
						if !ok {
							continue
						}
						for _, v := range vs.Values {
							if !hasCall(v) {
								continue
							}
							caller := g.node(pkg.Path+".init", pkg.Path, nil)
							caller.Defined = true
							g.addCalls(caller, v, pkg, impls)
						}
					}
				}
			}
		}
	}
	return g
}

// node interns a node by name. A non-nil fn from a source-checked package
// replaces an export-data representative.
func (g *Graph) node(name, pkgPath string, fn *types.Func) *Node {
	n, ok := g.nodes[name]
	if !ok {
		n = &Node{Name: name, PkgPath: pkgPath, Func: fn}
		g.nodes[name] = n
		return n
	}
	if fn != nil && n.Func == nil {
		n.Func = fn
	}
	return n
}

// addCalls resolves every call expression under root (including those inside
// function literals) and records edges from caller.
func (g *Graph) addCalls(caller *Node, root ast.Node, pkg *analysis.Package, impls *implTable) {
	ast.Inspect(root, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		g.resolve(caller, call, pkg, impls)
		return true
	})
}

// resolve records the edge(s) for one call expression.
func (g *Graph) resolve(caller *Node, call *ast.CallExpr, pkg *analysis.Package, impls *implTable) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := pkg.TypesInfo.Uses[fun].(*types.Func); ok {
			g.edge(caller, fn, call.Lparen)
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.TypesInfo.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			fn, ok := sel.Obj().(*types.Func)
			if !ok {
				return
			}
			g.edge(caller, fn, call.Lparen)
			if iface, ok := sel.Recv().Underlying().(*types.Interface); ok {
				for _, impl := range impls.methods(iface, fn) {
					g.edge(caller, impl, call.Lparen)
				}
			}
			return
		}
		// Qualified identifier (pkg.Func) or method expression receiver.
		if fn, ok := pkg.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			g.edge(caller, fn, call.Lparen)
		}
	}
}

func (g *Graph) edge(caller *Node, callee *types.Func, site token.Pos) {
	pkgPath := ""
	if callee.Pkg() != nil {
		pkgPath = callee.Pkg().Path()
	}
	to := g.node(callee.FullName(), pkgPath, callee)
	caller.Out = append(caller.Out, &Edge{Caller: caller, Callee: to, Site: site})
}

// hasCall reports whether any call expression occurs under n.
func hasCall(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.CallExpr); ok {
			found = true
		}
		return !found
	})
	return found
}

// Node returns the graph node for fn, or nil if fn never appears as a caller
// or callee.
func (g *Graph) Node(fn *types.Func) *Node {
	if fn == nil {
		return nil
	}
	return g.nodes[fn.FullName()]
}

// PathTo runs a breadth-first search from from and returns the edges of a
// shortest path to the first node satisfying sink, or nil if none is
// reachable. If through is non-nil, only nodes satisfying it are expanded
// (from itself is always expanded); sink nodes need not satisfy through.
// from itself is not tested against sink.
func (g *Graph) PathTo(from *Node, sink func(*Node) bool, through func(*Node) bool) []*Edge {
	type hop struct {
		edge *Edge
		prev *hop
	}
	unwind := func(h *hop) []*Edge {
		var path []*Edge
		for ; h != nil; h = h.prev {
			path = append([]*Edge{h.edge}, path...)
		}
		return path
	}
	seen := map[*Node]bool{from: true}
	queue := []*hop{}
	for _, e := range from.Out {
		if !seen[e.Callee] {
			seen[e.Callee] = true
			queue = append(queue, &hop{edge: e})
		}
	}
	for len(queue) > 0 {
		h := queue[0]
		queue = queue[1:]
		n := h.edge.Callee
		if sink(n) {
			return unwind(h)
		}
		if through != nil && !through(n) {
			continue
		}
		for _, e := range n.Out {
			if !seen[e.Callee] {
				seen[e.Callee] = true
				queue = append(queue, &hop{edge: e, prev: h})
			}
		}
	}
	return nil
}

// An ImplTable answers "which named types implement this interface?"
// queries over the loaded packages, caching per (interface, method name).
// It backs the CHA resolution here and is exported for other
// interprocedural analyzers (borrowck) that resolve interface calls with
// the same class-hierarchy assumption.
type ImplTable = implTable

// NewImplTable collects every non-interface named type declared in pkgs.
func NewImplTable(pkgs []*analysis.Package) *ImplTable {
	return implementers(pkgs)
}

// Methods returns, for every collected type implementing iface (by value or
// by pointer receiver), its method corresponding to the interface method m.
func (t *implTable) Methods(iface *types.Interface, m *types.Func) []*types.Func {
	return t.methods(iface, m)
}

// implTable answers "which named types implement this interface?" queries
// over the loaded packages, caching per (interface, method name).
type implTable struct {
	named []types.Type // every non-interface named type in the loaded packages
	cache map[implKey][]*types.Func
}

type implKey struct {
	iface  *types.Interface
	method string
}

// implementers collects every non-interface named type declared in pkgs, a
// generic one through each of its instances.
func implementers(pkgs []*analysis.Package) *implTable {
	t := &implTable{cache: map[implKey][]*types.Func{}}
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			if named.TypeParams().Len() > 0 {
				continue // uninstantiated generics have no concrete method set
			}
			t.named = append(t.named, named)
		}
		ids := make([]*ast.Ident, 0, len(pkg.TypesInfo.Instances))
		for id := range pkg.TypesInfo.Instances {
			ids = append(ids, id)
		}
		slices.SortFunc(ids, func(a, b *ast.Ident) int { return int(a.Pos() - b.Pos()) }) // deterministic order
		for _, id := range ids {
			if named, ok := pkg.TypesInfo.Instances[id].Type.(*types.Named); ok && !types.IsInterface(named) {
				t.named = append(t.named, named)
			}
		}
	}
	return t
}

// methods returns, for every collected type implementing iface (by value or
// by pointer receiver), its method corresponding to the interface method m.
func (t *implTable) methods(iface *types.Interface, m *types.Func) []*types.Func {
	key := implKey{iface, m.Name()}
	if got, ok := t.cache[key]; ok {
		return got
	}
	var out []*types.Func
	for _, named := range t.named {
		if !types.Implements(named, iface) && !types.Implements(types.NewPointer(named), iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, m.Pkg(), m.Name())
		if fn, ok := obj.(*types.Func); ok && !slices.Contains(out, fn.Origin()) {
			out = append(out, fn.Origin()) // one method for all instances of a generic type
		}
	}
	t.cache[key] = out
	return out
}
