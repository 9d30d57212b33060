// Package acqrel verifies that every simtime semaphore Acquire is
// matched by a Release on every control-flow path to return.
//
// The DES engine models contended hardware (DMA engines, PCIe links, VEO
// worker pools) with simtime.Semaphore; a path that returns while
// still holding a unit starves every later process queued on it — the
// simulation deadlocks silently instead of finishing, the exact
// deadlock-shaped bug class spanend catches for trace spans. The analyzer
// runs a forward dataflow pass over each function's CFG tracking the set of
// acquires that may still be held, and reports any Acquire that can reach
// the function's exit unreleased. A Release on the same receiver inside a
// defer discharges the obligation on every path at once.
//
// Paths that end in panic are not exits for this purpose: the simulation is
// already tearing down.
package acqrel

import (
	"go/ast"
	"go/types"

	"hamoffload/internal/analysis"
	"hamoffload/internal/analysis/cfg"
)

// Analyzer flags Acquires that may leak past a return.
var Analyzer = &analysis.Analyzer{
	Name: "acqrel",
	Doc: "every simtime.Semaphore Acquire must be matched by a Release on " +
		"all paths to return; a leaked unit deadlocks every later process queued on it",
	Run: run,
}

const simtimePath = "hamoffload/internal/simtime"

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, fb := range cfg.FuncBodies(file) {
			checkFunc(pass, fb.Body)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	g := cfg.New(body)
	steps := map[*cfg.Block][]cfg.Step[string]{}
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			// A Release anywhere in a deferred call discharges every exit
			// after the defer; only the body's own Acquires open.
			_, deferred := n.(*ast.DeferStmt)
			walk := cfg.Shallow
			if deferred {
				walk = ast.Inspect
			}
			walk(n, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch recv, kind := pairCall(pass.TypesInfo, call); {
				case kind == "Acquire" && !deferred:
					steps[b] = append(steps[b], cfg.Step[string]{Open: call.Pos(), Owner: recv})
				case kind == "Release":
					steps[b] = append(steps[b], cfg.Step[string]{Owner: recv})
				}
				return true
			})
		}
	}
	for _, l := range cfg.Leaks(g, steps) {
		pass.Reportf(l.Pos,
			"%s.Acquire is not matched by a %s.Release on every path to return; "+
				"a leaked unit deadlocks later acquirers", l.Owner, l.Owner)
	}
}

// pairCall classifies call as an Acquire or Release on a simtime
// Semaphore and returns the receiver's source expression. kind is
// "" for unrelated calls.
func pairCall(info *types.Info, call *ast.CallExpr) (recv, kind string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	name := sel.Sel.Name
	if name != "Acquire" && name != "Release" {
		return "", ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != simtimePath {
		return "", ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", ""
	}
	return types.ExprString(sel.X), name
}
