// Package spanend checks that trace-span closers are closed on every path.
//
// Tracer.Span and NodeTracer.Begin open a span and return a func() that
// closes it. A closer that is dropped, assigned to _, or skipped by an
// early return leaves the span open forever: the Chrome export and the
// Fig. 9 phase breakdown silently lose that phase, and the conformance
// contract (every offload carries encode/call/execute/wait spans) breaks
// only at runtime, on the error path nobody exercises. This is the
// lostcancel check, retargeted at span closers.
//
// The analyzer recognises closer-producing calls structurally: a method
// named Span or Begin whose result is a bare func(). A closer bound to a
// variable is an obligation, opened at the binding and discharged by a call
// of the variable, by its escape (returned, stored, passed on, captured by
// a function literal: ownership transfers) or by a defer that mentions it.
// A forward dataflow pass over the function's CFG (cfg.Leaks, as acqrel's)
// reports every binding that may reach the function's exit undischarged.
package spanend

import (
	"go/ast"
	"go/token"
	"go/types"

	"hamoffload/internal/analysis"
	"hamoffload/internal/analysis/cfg"
)

// Analyzer flags span closers that are dropped or skipped on a return path.
var Analyzer = &analysis.Analyzer{
	Name: "spanend",
	Doc: "closers returned by Tracer.Span/NodeTracer.Begin must be deferred or " +
		"called on every path, or the span never closes",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, fb := range cfg.FuncBodies(file) {
			checkFunc(pass, fb.Body)
		}
	}
	return nil
}

// A binding is one closer bound to a variable.
type binding struct {
	obj          types.Object
	name, opener string // the variable's name; Span or Begin
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	g := cfg.New(body)

	// Opens: the closer calls written in this body (function literals are
	// bodies of their own), classified by the node that consumes them.
	// Anything but the shapes below — an immediate call, a return, an
	// argument, a composite literal — consumes or hands on the closer.
	opens := map[ast.Node][]token.Pos{}
	bound := map[token.Pos]binding{}
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			cfg.Shallow(n, func(m ast.Node) bool {
				switch m := m.(type) {
				case *ast.ExprStmt:
					if name := opener(pass, m.X); name != "" {
						pass.Reportf(m.X.Pos(), "closer returned by %s is discarded; the span never closes", name)
					}
				case *ast.DeferStmt:
					if name := opener(pass, m.Call); name != "" {
						pass.Reportf(m.Call.Pos(),
							"defer %s(...) defers the opener, not the closer; write `defer %s(...)()`", name, name)
					}
				case *ast.AssignStmt:
					for i, rhs := range m.Rhs {
						name := opener(pass, rhs)
						if name == "" || i >= len(m.Lhs) {
							continue
						}
						id, ok := m.Lhs[i].(*ast.Ident)
						if !ok {
							continue // a field or index destination: the closer escapes
						}
						if id.Name == "_" {
							pass.Reportf(rhs.Pos(), "closer returned by %s is assigned to _; the span never closes", name)
							continue
						}
						obj := pass.TypesInfo.ObjectOf(id)
						if obj == nil {
							continue
						}
						opens[n] = append(opens[n], rhs.Pos())
						bound[rhs.Pos()] = binding{obj: obj, name: id.Name, opener: name}
					}
				}
				return true
			})
		}
	}
	if len(bound) == 0 {
		return
	}
	tracked := map[types.Object]bool{}
	for _, bd := range bound {
		tracked[bd.obj] = true
	}

	// Steps, in block order: a node's uses discharge before its bindings
	// open, since the right-hand side evaluates first.
	steps := map[*cfg.Block][]cfg.Step[types.Object]{}
	used := map[types.Object]bool{}
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			uses(pass, n, tracked, func(obj types.Object) {
				used[obj] = true
				steps[b] = append(steps[b], cfg.Step[types.Object]{Owner: obj})
			})
			for _, pos := range opens[n] {
				steps[b] = append(steps[b], cfg.Step[types.Object]{Open: pos, Owner: bound[pos].obj})
			}
		}
	}

	for _, l := range cfg.Leaks(g, steps) {
		bd := bound[l.Pos]
		if !used[l.Owner] {
			pass.Reportf(l.Pos, "closer %s returned by %s is never called; the span never closes", bd.name, bd.opener)
			continue
		}
		end := body.Rbrace // falling off the end
		if last := len(l.From.Nodes) - 1; last >= 0 {
			if ret, ok := l.From.Nodes[last].(*ast.ReturnStmt); ok {
				end = ret.Pos()
			}
		}
		pass.Reportf(l.Pos,
			"closer %s returned by %s is not closed on the return path at line %d; "+
				"defer it or call it before returning",
			bd.name, bd.opener, pass.Fset.Position(end).Line)
	}
}

// opener returns Span or Begin when e is a call of that name whose single
// result is a bare func(), and "" otherwise.
func opener(pass *analysis.Pass, e ast.Expr) string {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Span" && sel.Sel.Name != "Begin") {
		return ""
	}
	sig, ok := pass.TypesInfo.TypeOf(call).(*types.Signature)
	if !ok || sig.Recv() != nil || sig.Params().Len() != 0 || sig.Results().Len() != 0 {
		return ""
	}
	return sel.Sel.Name
}

// uses calls use for every reference to a tracked closer in n, function
// literals included: calling the closer, handing it on and capturing it all
// discharge it. Binding the variable is no use of it, and neither is
// `_ = end`, which only silences the compiler.
func uses(pass *analysis.Pass, n ast.Node, tracked map[types.Object]bool, use func(types.Object)) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.AssignStmt:
			blank := true
			for _, lhs := range m.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					uses(pass, lhs, tracked, use) // *p = ..., x.f = ...
				}
				blank = blank && ok && id.Name == "_"
			}
			for _, rhs := range m.Rhs {
				if _, ok := rhs.(*ast.Ident); !blank || !ok {
					uses(pass, rhs, tracked, use)
				}
			}
			return false
		case *ast.Ident:
			if obj := pass.TypesInfo.Uses[m]; obj != nil && tracked[obj] {
				use(obj)
			}
		}
		return true
	})
}
