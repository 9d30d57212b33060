// Package acqrel verifies that every simtime semaphore/resource Acquire is
// matched by a Release on every control-flow path to return.
//
// The DES engine models contended hardware (DMA engines, VEO worker pools)
// with simtime.Semaphore and simtime.Resource; a path that returns while
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
	"go/token"
	"go/types"

	"hamoffload/internal/analysis"
	"hamoffload/internal/analysis/cfg"
)

// Analyzer flags Acquires that may leak past a return.
var Analyzer = &analysis.Analyzer{
	Name: "acqrel",
	Doc: "every simtime.Semaphore/Resource Acquire must be matched by a Release on " +
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

// site is one Acquire call, identified by position.
type site struct {
	pos  token.Pos
	recv string // types.ExprString of the receiver
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	g := cfg.New(body)

	// Receivers released inside any defer are covered on every exit path;
	// acquires on those receivers carry no per-path obligation.
	deferred := map[string]bool{}
	for _, d := range g.Defers {
		ast.Inspect(d, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if recv, kind := pairCall(pass.TypesInfo, call); kind == "Release" {
					deferred[recv] = true
				}
			}
			return true
		})
	}

	// Collect the per-block event sequences.
	type event struct {
		acquire *site  // non-nil for Acquire
		release string // receiver, for Release
	}
	events := map[*cfg.Block][]event{}
	sites := map[token.Pos]*site{}
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.DeferStmt); ok {
				continue // handled via the deferred set
			}
			cfg.Shallow(n, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				recv, kind := pairCall(pass.TypesInfo, call)
				switch kind {
				case "Acquire":
					if !deferred[recv] {
						s := &site{pos: call.Pos(), recv: recv}
						sites[s.pos] = s
						events[b] = append(events[b], event{acquire: s})
					}
				case "Release":
					events[b] = append(events[b], event{release: recv})
				}
				return true
			})
		}
	}
	if len(sites) == 0 {
		return
	}

	// Solve: which acquires may still be held.
	res := cfg.MaySet(g, func(b *cfg.Block, held map[token.Pos]bool) {
		for _, e := range events[b] {
			if e.acquire != nil {
				held[e.acquire.pos] = true
				continue
			}
			for pos := range held {
				if sites[pos].recv == e.release {
					delete(held, pos)
				}
			}
		}
	})

	leaked := make([]token.Pos, 0, len(res.In[g.Exit]))
	for pos := range res.In[g.Exit] {
		leaked = append(leaked, pos)
	}
	// Deterministic report order.
	for _, pos := range sortedPos(leaked) {
		s := sites[pos]
		pass.Reportf(pos,
			"%s.Acquire is not matched by a %s.Release on every path to return; "+
				"a leaked unit deadlocks later acquirers", s.recv, s.recv)
	}
}

func sortedPos(ps []token.Pos) []token.Pos {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j] < ps[j-1]; j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
	return ps
}

// pairCall classifies call as an Acquire or Release on a simtime
// Semaphore/Resource and returns the receiver's source expression. kind is
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
