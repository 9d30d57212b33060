// Package afterfree forbids touching an internal/mem allocation after it
// has been freed on any control-flow path.
//
// The simulated memories (hostmem, vemem HBM, the adapter heaps) all hand
// out mem.Addr offsets from an internal/mem allocator; once Free(addr) runs,
// the allocator may re-issue the range to a concurrent transfer, so a later
// read/write through the stale address silently corrupts another message's
// buffer — the lifetime bug class the paper's buffer-registration protocol
// exists to prevent. The analyzer runs a forward dataflow pass tracking
// which address expressions may already be freed, and reports any later use
// (including a second Free). Re-assigning the variable kills the fact;
// deferred Frees run after every use and are ignored.
package afterfree

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"

	"hamoffload/internal/analysis"
	"hamoffload/internal/analysis/cfg"
)

// Analyzer flags uses of an allocation after its Free.
var Analyzer = &analysis.Analyzer{
	Name: "afterfree",
	Doc: "no use of an internal/mem allocation after its Free along any path; " +
		"the allocator may have re-issued the range to another transfer",
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

// An event is one ordered occurrence within a block: a Free of a key, a use
// of a key, or a kill (re-assignment) of a key.
type event struct {
	kind string // "free", "use", "kill"
	key  string
	pos  token.Pos
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	g := cfg.New(body)
	events := map[*cfg.Block][]event{}
	anyFree := false

	// First pass: find the freed address expressions, so use-collection can
	// limit itself to those keys.
	keys := map[string]bool{}
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.DeferStmt); ok {
				continue
			}
			cfg.Shallow(n, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok {
					if key, ok := freeArg(pass.TypesInfo, call); ok {
						keys[key] = true
					}
				}
				return true
			})
		}
	}
	if len(keys) == 0 {
		return
	}

	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.DeferStmt); ok {
				continue // a deferred Free runs after every use in the body
			}
			evs := collect(pass.TypesInfo, n, keys)
			events[b] = append(events[b], evs...)
			for _, e := range evs {
				if e.kind == "free" {
					anyFree = true
				}
			}
		}
	}
	if !anyFree {
		return
	}

	// replay pushes the freed set through b's events, checking each use
	// against the set as it stands there when report is on.
	replay := func(b *cfg.Block, freed map[string]bool, report bool) {
		for _, e := range events[b] {
			switch e.kind {
			case "free":
				freed[e.key] = true
			case "kill":
				delete(freed, e.key)
			case "use":
				if report && freed[e.key] {
					pass.Reportf(e.pos,
						"use of %s after Free; the allocator may have re-issued the range", e.key)
				}
			}
		}
	}
	// Solve which keys may be freed at block entry, then replay each
	// reachable block from there.
	res := cfg.MaySet(g, func(b *cfg.Block, freed map[string]bool) { replay(b, freed, false) })
	for _, b := range g.Blocks {
		if in, ok := res.In[b]; ok {
			replay(b, maps.Clone(in), true)
		}
	}
}

// collect extracts the ordered free/use/kill events of one CFG node for the
// given keys. Assignment left-hand sides are kills, not uses; the events are
// ordered by position, with each Free placed at its call's closing paren so
// the call's own argument does not count as a use-after-that-free.
func collect(info *types.Info, n ast.Node, keys map[string]bool) []event {
	var evs []event
	skip := map[ast.Node]bool{} // subtrees already handled (free args, kill LHS)

	cfg.Shallow(n, func(m ast.Node) bool {
		if skip[m] {
			return false
		}
		switch s := m.(type) {
		case *ast.CallExpr:
			if key, ok := freeArg(info, s); ok {
				// The free takes effect at the closing paren; the argument
				// itself is ordered before it, so Free(x) never self-reports
				// but a second Free(x) (a double free) does.
				evs = append(evs, event{kind: "free", key: key, pos: s.Rparen})
			}
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				if key := types.ExprString(lhs); keys[key] {
					evs = append(evs, event{kind: "kill", key: key, pos: lhs.Pos()})
				}
				skip[lhs] = true
			}
			return true
		case ast.Expr:
			if key := types.ExprString(s); keys[key] {
				evs = append(evs, event{kind: "use", key: key, pos: s.Pos()})
				return false // don't double-count sub-expressions
			}
		}
		return true
	})

	// Order by position; Frees sit at their Rparen, after their argument.
	for i := 1; i < len(evs); i++ {
		for j := i; j > 0 && evs[j].pos < evs[j-1].pos; j-- {
			evs[j], evs[j-1] = evs[j-1], evs[j]
		}
	}
	return evs
}

// freeArg recognises a Free call of the internal/mem allocator family — a
// method named Free with exactly one parameter whose underlying type is
// uint64 (mem.Addr) — and returns the freed expression's source text.
func freeArg(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Free" || len(call.Args) != 1 {
		return "", false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || sig.Params().Len() != 1 {
		return "", false
	}
	basic, ok := sig.Params().At(0).Type().Underlying().(*types.Basic)
	if !ok || basic.Kind() != types.Uint64 {
		return "", false
	}
	return types.ExprString(call.Args[0]), true
}
