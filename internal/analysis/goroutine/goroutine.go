// Package goroutine keeps OS concurrency out of the DES packages.
//
// The simulation engine is cooperative: exactly one process runs at a time,
// and every context switch happens at a known simulated instant through
// Engine.Spawn / the park-resume protocol. A raw `go` statement in a DES
// package introduces OS-scheduler nondeterminism that the picosecond clock
// cannot see — the same program starts producing different event orders
// under load, which is precisely the failure mode the simulator exists to
// exclude. The engine itself has no launch site to exempt: Spawn builds each
// process as an iter.Pull coroutine.
//
// The second check targets a subtler escape: a function handed to
// Engine.Spawn/Proc.Spawn that captures a *simtime.Proc from an enclosing
// scope. Each spawned process must talk to the engine through its own Proc
// argument; parking a parent's Proc from the child yields the wrong
// coroutine.
package goroutine

import (
	"go/ast"
	"go/types"

	"hamoffload/internal/analysis"
)

// Analyzer flags raw go statements and cross-process *simtime.Proc capture.
var Analyzer = &analysis.Analyzer{
	Name: "goroutine",
	Doc: "DES packages must route all concurrency through Engine.Spawn/Proc.Spawn; " +
		"spawned functions must use their own *simtime.Proc, not a captured one",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(),
					"raw goroutine in a DES package; all concurrency must go through "+
						"simtime Engine.Spawn/Proc.Spawn so the engine owns every context switch")
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Spawn" {
					return true
				}
				for _, arg := range n.Args {
					lit, ok := arg.(*ast.FuncLit)
					if !ok {
						continue
					}
					checkCaptures(pass, lit)
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
