package hamoffload_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"hamoffload/internal/analysis"
	"hamoffload/internal/analysis/callgraph"
)

// reachModule is the module path; the lists below are relative to it.
const reachModule = "hamoffload"

// reachPublic are the packages whose exported functions and methods, and the
// exported methods of every type they alias, are the module's API. Each of
// them must be reached from a program.
var reachPublic = []string{"offload", "gateway", "sched", "sched/health", "machine"}

// reachSupport are the test-support packages: only tests import them, and
// every function in them is a program.
var reachSupport = []string{"internal/backend/conformance", "internal/analysis/analysistest"}

// reachAllow names the functions no root reaches that stay, each with why:
// at most 25. An entry that a root reaches, or that no longer exists, fails
// the test.
var reachAllow = map[string]string{
	"bench.CheckAnchor":                           "the band check the calibration tests of machine, internal/veos and internal/dma share",
	"internal/backend/locb.NewPair":               "locb is the differential oracle of the whole-system checker, and only tests build it",
	"internal/backend/locb.NewN":                  "locb's n-node constructor, for the same oracle",
	"internal/backend/locb.Node.Kill":             "fails a locb node, the oracle's fault hook",
	"internal/backend/locb.Node.SetFaultInjector": "arms the oracle's transient faults",
	"internal/backend/locb.Node.SetTracer":        "traces the oracle, for conformance's trace contract",
	"internal/backend/tcpb.Host.DropConn":         "conformance's fault contract kills a tcpb node with it; tcpb cannot fail one otherwise",
	"internal/backend/tcpb.Host.SetFaultInjector": "conformance's fault contract arms tcpb's transient faults with it",
	"internal/backend/tcpb.Host.SetTracer":        "conformance's trace contract needs tcpb's call and wait spans",
	"internal/backend/tcpb.Target.SetTracer":      "conformance's trace contract needs tcpb's execute-side spans",
	"internal/backend/ring.Host.OpenHandles":      "an observer the whole-system checker reads: ring handles not released",
	"internal/backend/mpib.Host.OpenHandles":      "an observer the whole-system checker reads: proxy handles not released",
	"internal/pool.Free.Parked":                   "an observer the whole-system checker reads: records parked on a free list",
	"internal/dma.Instr.Loads":                    "an observer the whole-system checker reads: LHM loads per card",
	"internal/dma.Instr.Stores":                   "an observer the whole-system checker reads: SHM stores per card",
	"internal/veos.Card.Process":                  "how the whole-system checker finds a card's process, to read its Loads",
	"internal/veos.Process.Loads":                 "an observer the whole-system checker reads: a process's LHM loads",
	"internal/mem.Allocator.CheckInvariants":      "the allocator's invariant check, for the whole-system checker",
	"internal/mem.Memory.ResidentBytes":           "the resident-memory observer of core's and veos's memory pins, in other packages than mem",
}

// apiAllow names the API functions no program reaches that stay, each with
// why: at most 10. An entry that a program reaches, or that is not API, fails
// the test.
var apiAllow = map[string]string{}

// modulePackages loads the module's non-test code once for the tests that
// judge the module as a whole.
var modulePackages = func() func(t *testing.T) []*analysis.Package {
	var (
		once sync.Once
		pkgs []*analysis.Package
		err  error
	)
	return func(t *testing.T) []*analysis.Package {
		t.Helper()
		once.Do(func() { pkgs, err = analysis.Load(".", "./...") })
		if err != nil {
			t.Fatal(err)
		}
		return pkgs
	}
}()

// TestReachability fails on every function outside the test-support packages
// that no root reaches, and on every API function that no program reaches.
// The programs are every main, init and package-level variable initializer,
// and every function of the test-support packages. The roots are the
// programs and the API: the exported functions and methods of the public
// packages and of the types they alias. An edge is any reference to a
// function, a call or a function or method value; one inside a function
// literal belongs to the function around it. A call through an interface
// reaches every method that implements it (callgraph.ImplTable); a method
// that implements an interface of a package outside the module counts as a
// program, since that package may call it; a call on a type parameter
// reaches the method of every type argument. docs/LINTING.md, "Reachable
// code", gives the rule.
func TestReachability(t *testing.T) {
	if len(reachAllow) > 25 {
		t.Errorf("reachAllow has %d entries, more than 25", len(reachAllow))
	}
	if len(apiAllow) > 10 {
		t.Errorf("apiAllow has %d entries, more than 10", len(apiAllow))
	}
	pkgs := modulePackages(t)
	r := &reach{
		impls: callgraph.NewImplTable(pkgs),
		refs:  map[*types.Func][]*types.Func{},
		seen:  map[*types.Func]bool{},
	}
	for _, pkg := range pkgs {
		for _, inst := range pkg.TypesInfo.Instances {
			for i := 0; i < inst.TypeArgs.Len(); i++ {
				r.typeArgs = append(r.typeArgs, inst.TypeArgs.At(i))
			}
		}
	}
	var (
		programs, api []*types.Func
		decls         = map[*types.Func]token.Position{}
	)
	for _, pkg := range pkgs {
		rel := strings.TrimPrefix(pkg.Path, reachModule+"/")
		support, public := slices.Contains(reachSupport, rel), slices.Contains(reachPublic, rel)
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn := pkg.TypesInfo.Defs[d.Name].(*types.Func)
					r.refs[fn] = r.collect(pkg, d)
					decls[fn] = pkg.Fset.Position(d.Pos())
					if support || d.Recv == nil && (d.Name.Name == "main" || d.Name.Name == "init") {
						programs = append(programs, fn)
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						programs = append(programs, r.collect(pkg, d)...)
					}
				}
			}
		}
		if public {
			api = append(api, r.api(pkg.Types)...)
		}
	}
	programs = append(programs, r.foreign(pkgs)...)
	for _, fn := range programs {
		r.visit(fn)
	}
	// An API function is checked against the programs alone; the API then
	// joins the roots.
	apiNames := map[string]bool{}
	for _, fn := range api {
		fn = fn.Origin()
		name := funcName(fn)
		if apiNames[name] {
			continue // a type both declared and aliased in the API
		}
		apiNames[name] = true
		_, allowed := apiAllow[name]
		switch {
		case allowed && r.seen[fn]:
			t.Errorf("%s: %s is reached from a program; drop its apiAllow entry", decls[fn], name)
		case !allowed && !r.seen[fn]:
			t.Errorf("%s: %s is API that no main, init, initializer or test-support package reaches; give it a program, delete it, or allow it with a reason", decls[fn], name)
		}
	}
	for name := range apiAllow {
		if !apiNames[name] {
			t.Errorf("apiAllow names %s, which is not API", name)
		}
	}
	for _, fn := range api {
		r.visit(fn)
	}
	// An allowed function is checked against the roots alone; what it
	// reaches itself is not reported.
	allowed := map[string]bool{}
	for fn, pos := range decls {
		name := funcName(fn)
		if _, ok := reachAllow[name]; !ok {
			continue
		}
		allowed[name] = true
		if r.seen[fn] {
			t.Errorf("%s: %s is reached from a root; drop its reachAllow entry", pos, name)
		}
	}
	for name := range reachAllow {
		if !allowed[name] {
			t.Errorf("reachAllow names %s, which is not declared", name)
		}
	}
	for fn := range decls {
		if allowed[funcName(fn)] {
			r.visit(fn)
		}
	}
	var dead []string
	for fn, pos := range decls {
		if !r.seen[fn] {
			dead = append(dead, pos.String()+": "+funcName(fn))
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is reached by no main, init, initializer or public API; delete it, or allow it with a reason", d)
	}
}

// reach is a reachability walk over function references.
type reach struct {
	impls    *callgraph.ImplTable
	typeArgs []types.Type                  // every type argument
	refs     map[*types.Func][]*types.Func // by declared function
	seen     map[*types.Func]bool
}

// visit marks fn and everything it references.
func (r *reach) visit(fn *types.Func) {
	fn = fn.Origin()
	if r.seen[fn] {
		return
	}
	r.seen[fn] = true
	for _, to := range r.refs[fn] {
		r.visit(to)
	}
}

// collect returns every function n references; a method called through an
// interface stands for each method that implements it.
func (r *reach) collect(pkg *analysis.Package, n ast.Node) []*types.Func {
	var out []*types.Func
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if sel, ok := pkg.TypesInfo.Selections[n]; ok && sel.Kind() != types.FieldVal {
				fn := sel.Obj().(*types.Func)
				out = append(out, fn)
				if _, ok := sel.Recv().(*types.TypeParam); ok {
					out = append(out, r.instantiated(fn)...)
				} else if iface, ok := sel.Recv().Underlying().(*types.Interface); ok {
					out = append(out, r.impls.Methods(iface, fn)...)
				}
			}
		case *ast.Ident:
			if fn, ok := pkg.TypesInfo.Uses[n].(*types.Func); ok {
				out = append(out, fn)
			}
		}
		return true
	})
	return out
}

// instantiated returns the methods a call of m on a type parameter reaches:
// the method of that name of every type argument in the module.
func (r *reach) instantiated(m *types.Func) []*types.Func {
	var out []*types.Func
	for _, t := range r.typeArgs {
		obj, _, _ := types.LookupFieldOrMethod(t, true, m.Pkg(), m.Name())
		if fn, ok := obj.(*types.Func); ok {
			out = append(out, fn)
		}
	}
	return out
}

// api returns the exported functions of a public package and the exported
// methods of its exported types, aliased ones included; an exported
// interface stands for each method that implements it.
func (r *reach) api(pkg *types.Package) []*types.Func {
	var out []*types.Func
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		switch obj := obj.(type) {
		case *types.Func:
			out = append(out, obj)
		case *types.TypeName:
			out = append(out, r.methods(obj.Type())...)
		}
	}
	return out
}

// methods returns the exported methods of t, or, for an interface, the
// methods that implement its exported ones.
func (r *reach) methods(t types.Type) []*types.Func {
	var out []*types.Func
	if iface, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < iface.NumMethods(); i++ {
			if m := iface.Method(i); m.Exported() {
				out = append(out, r.impls.Methods(iface, m)...)
			}
		}
		return out
	}
	ms := types.NewMethodSet(types.NewPointer(t))
	for i := 0; i < ms.Len(); i++ {
		if m := ms.At(i).Obj().(*types.Func); m.Exported() {
			out = append(out, m)
		}
	}
	return out
}

// foreign returns the methods that implement an interface declared outside
// the module, in any package the module imports: code there (fmt's
// Stringer, sort.Interface, error) may call them.
func (r *reach) foreign(pkgs []*analysis.Package) []*types.Func {
	seen := map[*types.Package]bool{}
	var out []*types.Func
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		if p.Path() != reachModule && !strings.HasPrefix(p.Path(), reachModule+"/") {
			scope := p.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.Exported() && types.IsInterface(tn.Type()) {
					out = append(out, r.methods(tn.Type())...)
				}
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, pkg := range pkgs {
		walk(pkg.Types)
	}
	return append(out, r.methods(types.Universe.Lookup("error").Type())...)
}

// funcName is fn's name for reachAllow and for the report: its package path
// below the module, then its receiver's type name, if any, then its own.
func funcName(fn *types.Func) string {
	name := strings.TrimPrefix(fn.Pkg().Path(), reachModule+"/")
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			name += "." + n.Obj().Name()
		}
	}
	return name + "." + fn.Name()
}
