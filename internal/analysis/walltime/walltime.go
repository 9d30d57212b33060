// Package walltime forbids wall-clock time in simulation packages.
//
// The DES engine's whole guarantee — every run of the same program is
// bit-for-bit reproducible, and traced runs are identical to untraced ones
// — holds only if simulated components never observe the host clock. One
// stray time.Now in a backend silently turns a deterministic experiment
// (Fig. 9 breakdowns, Tables I/III) into a flaky one. Simulation code must
// take time from *simtime.Proc / trace.Clock; the wall-clock backends are
// exempted by policy, not by this analyzer.
package walltime

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"hamoffload/internal/analysis"
	"hamoffload/internal/analysis/callgraph"
)

// Analyzer flags references to wall-clock functions of package time. The
// per-package pass catches direct calls; the module pass follows the call
// graph out of DES packages and catches wall-clock reads hidden behind
// helpers in neutral (un-scoped) packages.
var Analyzer = &analysis.Analyzer{
	Name: "walltime",
	Doc: "forbid time.Now/Sleep/Since/... in simulation packages; " +
		"the DES clock (simtime.Proc.Now, Proc.Sleep) is the only time source there",
	Run:       run,
	RunModule: runModule,
}

// forbidden lists the package-time functions that observe or depend on the
// host clock. Pure data types (time.Duration arithmetic, constants) stay
// legal: they carry no clock reading.
var forbidden = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"Since":     true,
	"Until":     true,
	"Tick":      true,
	"After":     true,
	"AfterFunc": true,
	"NewTimer":  true,
	"NewTicker": true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
				return true
			}
			if forbidden[obj.Name()] {
				pass.Reportf(sel.Pos(),
					"time.%s reads the wall clock; simulation code must use the DES clock "+
						"(simtime.Proc.Now/Sleep or a trace.Clock)", obj.Name())
			}
			return true
		})
	}
	return nil
}

// runModule is the interprocedural phase: from every function in a package
// the walltime policy scopes, follow the call graph through neutral packages
// — ones neither scoped (their own pass covers them) nor wall-clock
// sanctioned (the socket backends) — and flag any
// call whose transitive callees read the wall clock. Direct time.* calls are
// left to the per-package pass so each finding is reported exactly once.
func runModule(pass *analysis.ModulePass) error {
	applies := pass.Applies
	if applies == nil {
		applies = analysis.Applies
	}
	g := callgraph.Build(pass.Pkgs)

	isSink := func(n *callgraph.Node) bool {
		return n.Func != nil && n.Func.Pkg() != nil &&
			n.Func.Pkg().Path() == "time" && forbidden[n.Func.Name()]
	}
	sanctioned := func(path string) bool {
		return analysis.InAny(path, analysis.WallClock)
	}
	// Traversal may pass only through neutral, source-loaded functions:
	// scoped packages report their own calls, sanctioned packages absorb
	// wall-clock use by design, and export-data-only functions have no
	// bodies to look through anyway.
	through := func(n *callgraph.Node) bool {
		return n.Defined && !sanctioned(n.PkgPath) && !applies("walltime", n.PkgPath)
	}

	for _, pkg := range pass.Pkgs {
		if !applies("walltime", pkg.Path) {
			continue
		}
		reported := map[token.Pos]bool{}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				node := g.Node(fn)
				if node == nil {
					continue
				}
				for _, e := range node.Out {
					if reported[e.Site] {
						continue
					}
					if isSink(e.Callee) || !through(e.Callee) {
						continue // direct call (per-package pass) or out of scope
					}
					path := g.PathTo(e.Callee, isSink, through)
					if path == nil {
						continue
					}
					reported[e.Site] = true
					pass.Reportf(e.Site,
						"call to %s reaches the wall clock (%s); simulation code must use "+
							"the DES clock (simtime.Proc.Now/Sleep or a trace.Clock)",
						e.Callee.Name, chain(e.Callee, path))
				}
			}
		}
	}
	return nil
}

// chain renders first → ... → sink for the diagnostic.
func chain(first *callgraph.Node, path []*callgraph.Edge) string {
	parts := []string{first.Name}
	for _, e := range path {
		parts = append(parts, e.Callee.Name)
	}
	return strings.Join(parts, " → ")
}
