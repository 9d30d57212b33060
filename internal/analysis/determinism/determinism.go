// Package determinism keeps the simulation and its outputs a pure function
// of their inputs.
//
// The DES engine is cooperative: exactly one process runs at a time, and
// every context switch happens at a known simulated instant through
// Engine.Spawn / the park-resume protocol. The trace exporters, metric
// registries, HAM key tables and experiment drivers promise bit-identical
// output for identical simulations — the golden Chrome-export test and the
// §III-E sorted-key-table property depend on it. Four things break that
// silently, and each survives every test run until it doesn't:
//
//   - a raw `go` statement introduces OS-scheduler nondeterminism the
//     picosecond clock cannot see. The engine itself has no launch site to
//     exempt: Spawn builds each process as an iter.Pull coroutine;
//   - a function handed to Engine.Spawn/Proc.Spawn that captures a
//     *simtime.Proc from an enclosing scope parks the wrong coroutine: each
//     spawned process must talk to the engine through its own Proc;
//   - a range over a map visits keys in an order Go randomises per run. It
//     is accepted only when its body is order-insensitive: nothing but
//     append collection, integer accumulation (+=, ++/--), or such
//     statements behind an else-less if. That admits the collect-then-sort
//     idiom and commutative sums;
//   - math/rand (or v2) is imported.
//
// Everything else needs an explicit //lint:allow determinism with a
// justification.
package determinism

import (
	"go/ast"
	"go/types"
	"strconv"

	"hamoffload/internal/analysis"
)

// Analyzer flags raw go statements, cross-process *simtime.Proc capture,
// order-sensitive map iteration and math/rand use.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc: "deterministic packages must route all concurrency through Engine.Spawn/Proc.Spawn " +
		"(spawned functions using their own *simtime.Proc) and must not depend on map " +
		"iteration order (collect and sort keys first) or on math/rand",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			if path, err := strconv.Unquote(imp.Path.Value); err == nil &&
				(path == "math/rand" || path == "math/rand/v2") {
				pass.Reportf(imp.Pos(),
					"%s in a deterministic-output path; outputs must be a pure function of the inputs", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(),
					"raw goroutine in a DES package; all concurrency must go through "+
						"simtime Engine.Spawn/Proc.Spawn so the engine owns every context switch")
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Spawn" {
					for _, arg := range n.Args {
						if lit, ok := arg.(*ast.FuncLit); ok {
							checkCaptures(pass, lit)
						}
					}
				}
			case *ast.RangeStmt:
				t := pass.TypesInfo.TypeOf(n.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); isMap && !orderInsensitive(pass, n.Body.List) {
					pass.Reportf(n.Pos(),
						"iteration over map %s has nondeterministic order; collect the keys, "+
							"sort them, and iterate the sorted slice", types.TypeString(t, types.RelativeTo(pass.Pkg)))
				}
			}
			return true
		})
	}
	return nil
}

// checkCaptures reports *simtime.Proc variables that lit references but
// that are declared outside it.
func checkCaptures(pass *analysis.Pass, lit *ast.FuncLit) {
	reported := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || reported[obj] || !isProcPtr(obj.Type()) {
			return true
		}
		if obj.Pos() >= lit.Pos() && obj.Pos() < lit.End() {
			return true // the literal's own parameter or local
		}
		reported[obj] = true
		pass.Reportf(id.Pos(),
			"function passed to Spawn captures *simtime.Proc %q from an enclosing scope; "+
				"a spawned process must use its own Proc argument", obj.Name())
		return true
	})
}

// isProcPtr reports whether t is *simtime.Proc.
func isProcPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Proc" && obj.Pkg() != nil &&
		obj.Pkg().Path() == "hamoffload/internal/simtime"
}

// orderInsensitive reports whether every statement commutes across loop
// iterations: append collection, integer accumulation, or either behind an
// else-less if.
func orderInsensitive(pass *analysis.Pass, stmts []ast.Stmt) bool {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ast.AssignStmt:
			if !commutativeAssign(pass, s) {
				return false
			}
		case *ast.IncDecStmt:
			// counting is commutative
		case *ast.IfStmt:
			if s.Else != nil || !orderInsensitive(pass, s.Body.List) {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// commutativeAssign accepts `x = append(x, ...)` and integer `x += e`.
func commutativeAssign(pass *analysis.Pass, as *ast.AssignStmt) bool {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	switch as.Tok.String() {
	case "=", ":=":
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok {
			return false
		}
		b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
		return ok && b.Name() == "append"
	case "+=":
		// Integer addition commutes; float addition does not (rounding
		// depends on order).
		t := pass.TypesInfo.TypeOf(as.Lhs[0])
		if t == nil {
			return false
		}
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsInteger != 0
	}
	return false
}
