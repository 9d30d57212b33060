// Package flagorder enforces the payload-before-flag protocol ordering of
// the paper's two message channels (Fig. 5 for VEO, Fig. 8 for DMA).
//
// The protocol (backend/ring) publishes a message by raising a flag word —
// built with slots.Encode — after the payload bytes are in place; the receiver spins on
// the flag and then reads the payload. Any write that can land after the
// flag is raised races the receiver: it may read a half-written message
// while still trusting the length in the flag word. The analyzer therefore
// flags every memory write that is reachable, within one function, from a
// flag publish on a flag-free path.
//
// The rule is checked at two levels. In ring it applies to the calls on the
// transport interfaces: a transport method whose name contains Flag
// (PublishFlag, PublishResultFlag) publishes, the other transport write
// methods (WriteMessage, PushResult) carry payload. In the transports
// themselves (backend/dmab, backend/veob) it applies to the raw memory
// writes inside each method.
//
// Loop iterations are handled by reasoning over the back-edge-pruned
// (acyclic) CFG: the flag raised in iteration i may legitimately precede the
// payload writes of iteration i+1, so reachability is only computed within
// one iteration.
package flagorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"hamoffload/internal/analysis"
	"hamoffload/internal/analysis/cfg"
)

// Analyzer flags payload writes that may execute after a flag publish.
var Analyzer = &analysis.Analyzer{
	Name: "flagorder",
	Doc: "in the ring/dmab/veob/slots protocol paths, the flag word publishing a message " +
		"must be the last write: payload bytes written after it race the receiver (Fig. 5/8)",
	Run: run,
}

// writeVerbs are the memory-write entry points of the protocol layers: the
// ring transports' write methods, host and HBM stores, VEO bulk copies, VE
// store instructions, and DMA posts.
var writeVerbs = map[string]bool{
	"WriteMessage":      true,
	"PublishFlag":       true,
	"PushResult":        true,
	"PublishResultFlag": true,

	"WriteAt":     true,
	"WriteMem":    true,
	"WriteUint64": true,
	"StoreBytes":  true,
	"StoreWord":   true,
	"Post":        true,
}

// A write is one classified memory-write call site.
type write struct {
	pos  token.Pos
	name string // callee name, for diagnostics
	flag bool   // publishes a flag word
}

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
	writes := map[*cfg.Block][]write{}
	any := false
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.DeferStmt); ok {
				continue // deferred writes run at exit, outside the protocol path
			}
			cfg.Shallow(n, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				if w, ok := classify(pass.TypesInfo, call); ok {
					writes[b] = append(writes[b], w)
					any = true
				}
				return true
			})
		}
	}
	if !any {
		return
	}

	dom := cfg.Dominators(g)
	back := map[cfg.Edge]bool{}
	for _, e := range cfg.BackEdges(g, dom) {
		back[e] = true
	}

	reported := map[token.Pos]bool{}
	for _, fb := range g.Blocks {
		for fi, f := range writes[fb] {
			if !f.flag {
				continue
			}
			// Later writes in the same block execute strictly after the flag.
			for _, p := range writes[fb][fi+1:] {
				report(pass, reported, p, f)
			}
			// Writes in blocks reachable within the same iteration.
			for _, pb := range reachableAcyclic(fb, back) {
				for _, p := range writes[pb] {
					report(pass, reported, p, f)
				}
			}
		}
	}
}

// report flags the payload write p as racing the flag publish f. Flag
// rewrites after a flag are legal (re-publish of the next slot state).
func report(pass *analysis.Pass, reported map[token.Pos]bool, p, f write) {
	if p.flag || reported[p.pos] {
		return
	}
	reported[p.pos] = true
	fpos := pass.Fset.Position(f.pos)
	pass.Reportf(p.pos,
		"%s may execute after the flag publish at line %d; the payload must be "+
			"complete before its flag is raised (Fig. 5/8)", p.name, fpos.Line)
}

// reachableAcyclic returns the blocks strictly reachable from b along
// non-back edges — the "later in this iteration" set.
func reachableAcyclic(b *cfg.Block, back map[cfg.Edge]bool) []*cfg.Block {
	var out []*cfg.Block
	seen := map[*cfg.Block]bool{b: true}
	stack := []*cfg.Block{b}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range cur.Succs {
			if back[cfg.Edge{From: cur, To: s}] || seen[s] {
				continue
			}
			seen[s] = true
			out = append(out, s)
			stack = append(stack, s)
		}
	}
	return out
}

// classify decides whether call is a protocol memory write and, if so,
// whether it publishes a flag: the verb itself is a *Flag* method of a ring
// transport, or its arguments contain either a slots.Encode call (building
// the flag word) or a call to a *Flag* helper (computing the flag address).
func classify(info *types.Info, call *ast.CallExpr) (write, bool) {
	name := calleeName(call)
	if !writeVerbs[name] {
		return write{}, false
	}
	w := write{pos: call.Pos(), name: name, flag: containsFlag(name)}
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			inner, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if isEncode(info, inner) || containsFlag(calleeName(inner)) {
				w.flag = true
			}
			return true
		})
	}
	return w, true
}

// calleeName extracts the syntactic callee name of a call.
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// isEncode reports whether call invokes the slots package's Encode.
func isEncode(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Name() != "Encode" || fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	return path == "hamoffload/internal/backend/slots" || fn.Pkg().Name() == "slots"
}

// containsFlag reports whether a helper name marks a flag address
// computation (recvFlagAddr, sendFlagOff, ...).
func containsFlag(name string) bool {
	return strings.Contains(name, "Flag")
}
