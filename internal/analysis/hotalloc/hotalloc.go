// Package hotalloc enforces allocation-free hot paths.
//
// The ROADMAP's million-request serving item needs the DES engine and the
// offload fast path to run 10^7 simulated offloads in seconds of wall
// clock; the perf ledger (BENCHMARK.json: allocs_per_op on every workload)
// already bounds allocations dynamically, but nothing stopped a new
// fmt.Sprintf or escaping closure from creeping into Dispatch until the
// benchmark drifted. hotalloc closes that gap statically: it walks every
// function reachable from a declared hot-path root and reports each
// operation that may allocate, with the full root→allocation call chain.
//
// Roots are declared centrally — analysis.HotPathRoots in policy.go, or a
// //hot:path marker in a function's doc comment. A //hot:cold marker
// asserts a function is off the hot path (terminal error construction,
// recovery paths); the walk does not enter it.
//
// The traversal understands the repository's armed-observability idiom:
// branches guarded by a nil check of an armed handle (*trace.Tracer,
// *trace.NodeTracer — analysis.ArmedGuardTypes) are
// the instrumented slow path and are pruned, as are then-branches of
// `if err != nil` error guards and the argument of a panic. Everything else
// reachable from a root must be allocation-free:
//
//   - &T{} / new(T) and slice/map composite literals
//   - append whose base is not an explicit reuse slice (s[:0], s[:n])
//   - make of slices (non-provable size), maps and channels
//   - interface boxing: concrete non-pointer values passed to interface
//     parameters, returned as interface results, or converted explicitly
//   - closures capturing variables
//   - non-constant string concatenation and string↔[]byte conversions
//   - fmt.* and errors.New calls
//   - map iteration
//
// Findings land only in the packages the hotalloc policy scopes
// (analysis.Applies); calls out into neutral packages are followed, but
// their internal findings are dropped by the shared module-pass scoping.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"hamoffload/internal/analysis"
	"hamoffload/internal/analysis/callgraph"
)

// Analyzer reports heap-allocating operations reachable from hot-path
// roots. It is module-wide only: the interesting allocations sit behind
// call chains that cross package boundaries.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "forbid heap allocation on hot paths: everything reachable from a " +
		"//hot:path root (or analysis.HotPathRoots) must not allocate outside " +
		"armed-observability and error branches",
	RunModule: runModule,
}

// site is one potential allocation inside a function body.
type site struct {
	pos  token.Pos
	what string
}

// callEdge is one resolved outgoing call.
type callEdge struct {
	callee string // Origin-normalized types.Func.FullName
}

// fnSummary is the per-function result of the pruning walk.
type fnSummary struct {
	name   string
	hot    bool // //hot:path marker or policy root
	cold   bool // //hot:cold marker
	allocs []site
	calls  []callEdge
}

func runModule(pass *analysis.ModulePass) error {
	impls := callgraph.NewImplTable(pass.Pkgs)
	roots := map[string]bool{}
	for _, name := range analysis.HotPathRoots {
		roots[name] = true
	}

	sums := map[string]*fnSummary{}
	var order []string // summary names in load order, for deterministic BFS
	for _, pkg := range pass.Pkgs {
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
				s := &fnSummary{
					name: fn.FullName(),
					hot:  hasMarker(fd.Doc, "hot:path") || roots[fn.FullName()],
					cold: hasMarker(fd.Doc, "hot:cold"),
				}
				if !s.cold {
					w := &walker{pkg: pkg, sum: s, impls: impls, sig: fn.Type().(*types.Signature)}
					w.block(fd.Body.List)
				}
				sums[s.name] = s
				order = append(order, s.name)
			}
		}
	}

	// BFS the call forest from every root, carrying the chain for the
	// diagnostic. Each function is visited once (first root wins) and each
	// allocation site reported once.
	type hop struct {
		name string
		prev *hop
	}
	render := func(h *hop) string {
		var parts []string
		for ; h != nil; h = h.prev {
			parts = append([]string{h.name}, parts...)
		}
		return strings.Join(parts, " → ")
	}
	seen := map[string]bool{}
	reported := map[token.Pos]bool{}
	var rootNames []string
	for _, name := range order {
		if sums[name].hot && !sums[name].cold {
			rootNames = append(rootNames, name)
		}
	}
	sort.Strings(rootNames)
	for _, root := range rootNames {
		if seen[root] {
			continue
		}
		seen[root] = true
		queue := []*hop{{name: root}}
		for len(queue) > 0 {
			h := queue[0]
			queue = queue[1:]
			s := sums[h.name]
			for _, a := range s.allocs {
				if reported[a.pos] {
					continue
				}
				reported[a.pos] = true
				pass.Reportf(a.pos, "%s on a hot path (%s)", a.what, render(h))
			}
			for _, c := range s.calls {
				callee := sums[c.callee]
				if callee == nil || callee.cold || seen[c.callee] {
					continue
				}
				seen[c.callee] = true
				queue = append(queue, &hop{name: c.callee, prev: h})
			}
		}
	}
	return nil
}

// hasMarker reports whether the doc comment group contains a line comment
// of exactly //<marker> (ignoring surrounding space).
func hasMarker(doc *ast.CommentGroup, marker string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) == marker {
			return true
		}
	}
	return false
}

// walker performs the pruning walk over one function body, accumulating
// allocation sites and outgoing call edges.
type walker struct {
	pkg      *analysis.Package
	sum      *fnSummary
	impls    *callgraph.ImplTable
	sig      *types.Signature
	inConcat bool // suppress nested string-concat reports
}

func (w *walker) typeOf(e ast.Expr) types.Type {
	return w.pkg.TypesInfo.TypeOf(e)
}

func (w *walker) report(pos token.Pos, what string) {
	w.sum.allocs = append(w.sum.allocs, site{pos: pos, what: what})
}

// block walks statements in order, stopping when a disarmed fast-path
// return makes the remainder armed-only.
func (w *walker) block(list []ast.Stmt) {
	for _, s := range list {
		if w.stmt(s) {
			return
		}
	}
}

// stmt walks one statement; it returns true when the remainder of the
// enclosing block is provably armed-only (a `if armed == nil { ...return }`
// fast path ran) and must be pruned.
func (w *walker) stmt(s ast.Stmt) bool {
	switch s := s.(type) {
	case nil:
		return false
	case *ast.IfStmt:
		return w.ifStmt(s)
	case *ast.BlockStmt:
		w.block(s.List)
	case *ast.ForStmt:
		w.stmt(s.Init)
		w.expr(s.Cond)
		w.stmt(s.Post)
		w.block(s.Body.List)
	case *ast.RangeStmt:
		if t := w.typeOf(s.X); t != nil {
			if _, ok := t.Underlying().(*types.Map); ok {
				w.report(s.For, "map iteration (unbounded iterator state, nondeterministic order)")
			}
		}
		w.expr(s.X)
		w.block(s.Body.List)
	case *ast.SwitchStmt:
		w.stmt(s.Init)
		w.expr(s.Tag)
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				w.expr(e)
			}
			w.block(cc.Body)
		}
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init)
		w.stmt(s.Assign)
		for _, c := range s.Body.List {
			w.block(c.(*ast.CaseClause).Body)
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			w.stmt(cc.Comm)
			w.block(cc.Body)
		}
	case *ast.ReturnStmt:
		w.returnStmt(s)
	case *ast.AssignStmt:
		for _, e := range s.Lhs {
			w.expr(e)
		}
		for _, e := range s.Rhs {
			w.expr(e)
		}
	case *ast.ExprStmt:
		w.expr(s.X)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v)
					}
				}
			}
		}
	case *ast.DeferStmt:
		w.expr(s.Call)
	case *ast.GoStmt:
		w.expr(s.Call)
	case *ast.SendStmt:
		w.expr(s.Chan)
		w.expr(s.Value)
	case *ast.IncDecStmt:
		w.expr(s.X)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt)
	}
	return false
}

// ifStmt applies the branch-condition whitelist:
//
//	if armed != nil { ... }        — armed-only branch: skipped
//	if armed == nil { ... }        — disarmed fast path: walked; a trailing
//	                                 return prunes the (armed) remainder
//	if err != nil { ... }          — error path: skipped
//
// Any other condition walks both branches.
func (w *walker) ifStmt(s *ast.IfStmt) bool {
	w.stmt(s.Init)
	w.expr(s.Cond)
	switch w.guardKind(s.Cond) {
	case guardArmed:
		// Then-branch runs only when instrumentation is armed.
		return w.stmt(s.Else)
	case guardDisarmed:
		w.block(s.Body.List)
		// `if armed == nil { fast; return }`: everything after the if runs
		// with instrumentation armed.
		return terminates(s.Body)
	case guardError:
		return w.stmt(s.Else)
	}
	w.block(s.Body.List)
	w.stmt(s.Else)
	return false
}

type guard int

const (
	guardNone     guard = iota
	guardArmed          // condition true ⇒ instrumentation armed
	guardDisarmed       // condition true ⇒ instrumentation disarmed
	guardError          // condition true ⇒ error path
)

// guardKind classifies a branch condition against the whitelist. Only the
// exact shapes `X op nil` (plus `X != nil && ...`) are recognized; anything
// richer is walked conservatively.
func (w *walker) guardKind(cond ast.Expr) guard {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return guardNone
	}
	if be.Op == token.LAND {
		// `armed != nil && ...` still implies armed when true.
		if g := w.guardKind(be.X); g == guardArmed || g == guardError {
			return g
		}
		return guardNone
	}
	if be.Op != token.EQL && be.Op != token.NEQ {
		return guardNone
	}
	operand := be.X
	if isNil(w.pkg, be.X) {
		operand = be.Y
	} else if !isNil(w.pkg, be.Y) {
		return guardNone
	}
	t := w.typeOf(operand)
	switch {
	case isArmedType(t):
		if be.Op == token.NEQ {
			return guardArmed
		}
		return guardDisarmed
	case isErrorType(t):
		if be.Op == token.NEQ {
			return guardError
		}
		return guardNone // `err == nil` guards the success path: keep walking
	}
	return guardNone
}

func isNil(pkg *analysis.Package, e ast.Expr) bool {
	tv, ok := pkg.TypesInfo.Types[e]
	return ok && tv.IsNil()
}

// isArmedType reports whether t is a pointer to one of the armed
// observability handle types from the policy.
func isArmedType(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	full := obj.Pkg().Path() + "." + obj.Name()
	for _, name := range analysis.ArmedGuardTypes {
		if full == name {
			return true
		}
	}
	return false
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func isErrorType(t types.Type) bool {
	return t != nil && types.Implements(t, errorIface)
}

// terminates reports whether the block provably does not fall through: its
// last statement is a return or a panic call.
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// returnStmt walks result expressions and reports concrete values boxed
// into interface-typed results.
func (w *walker) returnStmt(s *ast.ReturnStmt) {
	results := w.sig.Results()
	for i, e := range s.Results {
		if len(s.Results) == results.Len() && i < results.Len() {
			if iface := ifaceType(results.At(i).Type()); iface != nil {
				if w.boxes(e, iface) {
					w.report(e.Pos(), "return value boxes into interface "+results.At(i).Type().String())
				}
			}
		}
		w.expr(e)
	}
}

// expr walks one expression tree, reporting allocating operations.
func (w *walker) expr(e ast.Expr) {
	switch e := e.(type) {
	case nil:
		return
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			if cl, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
				w.report(e.Pos(), "&"+typeLabel(w.typeOf(cl))+"{} escapes to the heap")
				w.compositeElts(cl)
				return
			}
		}
		w.expr(e.X)
	case *ast.CompositeLit:
		if t := w.typeOf(e); t != nil {
			switch t.Underlying().(type) {
			case *types.Slice:
				w.report(e.Pos(), "slice literal "+typeLabel(t)+"{...} allocates its backing array")
			case *types.Map:
				w.report(e.Pos(), "map literal "+typeLabel(t)+"{...} allocates")
			}
		}
		w.compositeElts(e)
	case *ast.CallExpr:
		w.call(e)
	case *ast.FuncLit:
		if captured := freeVars(w.pkg, e); len(captured) > 0 {
			w.report(e.Pos(), "closure captures "+strings.Join(captured, ", ")+" and escapes")
		}
		// The closure body is part of the hot path when invoked there; walk
		// it with the literal's own signature for return-boxing checks.
		inner := &walker{pkg: w.pkg, sum: w.sum, impls: w.impls}
		if sig, ok := w.typeOf(e).(*types.Signature); ok {
			inner.sig = sig
		} else {
			inner.sig = w.sig
		}
		inner.block(e.Body.List)
	case *ast.BinaryExpr:
		if e.Op == token.ADD && !w.inConcat {
			if t := w.typeOf(e); t != nil && isString(t) && !w.isConst(e) {
				w.report(e.Pos(), "string concatenation allocates")
				w.inConcat = true
				w.expr(e.X)
				w.expr(e.Y)
				w.inConcat = false
				return
			}
		}
		w.expr(e.X)
		w.expr(e.Y)
	case *ast.ParenExpr:
		w.expr(e.X)
	case *ast.StarExpr:
		w.expr(e.X)
	case *ast.SelectorExpr:
		w.expr(e.X)
	case *ast.IndexExpr:
		w.expr(e.X)
		w.expr(e.Index)
	case *ast.IndexListExpr:
		w.expr(e.X)
	case *ast.SliceExpr:
		w.expr(e.X)
		w.expr(e.Low)
		w.expr(e.High)
		w.expr(e.Max)
	case *ast.TypeAssertExpr:
		w.expr(e.X)
	case *ast.KeyValueExpr:
		w.expr(e.Key)
		w.expr(e.Value)
	}
}

func (w *walker) compositeElts(cl *ast.CompositeLit) {
	for _, el := range cl.Elts {
		w.expr(el)
	}
}

func (w *walker) isConst(e ast.Expr) bool {
	tv, ok := w.pkg.TypesInfo.Types[e]
	return ok && tv.Value != nil
}

// call handles conversions, builtins, allocation-prone callees, argument
// boxing and call-edge resolution for one call expression.
func (w *walker) call(call *ast.CallExpr) {
	info := w.pkg.TypesInfo

	// Type conversion T(x).
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		target := tv.Type
		src := w.typeOf(call.Args[0])
		switch {
		case src != nil &&
			((isString(target) && isByteSlice(src)) || (isByteSlice(target) && isString(src))):
			w.report(call.Pos(), "string ↔ []byte conversion copies and allocates")
		case ifaceType(target) != nil:
			if w.boxes(call.Args[0], ifaceType(target)) {
				w.report(call.Pos(), "conversion boxes "+typeLabel(src)+" into interface "+typeLabel(target))
			}
		}
		w.expr(call.Args[0])
		return
	}

	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "panic":
				// A panic ends the path: whatever renders its message runs at
				// most once per process.
				return
			case "append":
				w.appendCall(call)
			case "make":
				w.makeCall(call)
			case "new":
				if len(call.Args) == 1 {
					w.report(call.Pos(), "new("+typeLabel(w.typeOf(call.Args[0]))+") allocates")
				}
			}
			for _, a := range call.Args {
				w.expr(a)
			}
			return
		}
	}

	// Resolve the callee(s): static call, method call (with CHA fan-out for
	// interface receivers), or nothing for dynamic func values.
	var callees []*types.Func
	armedRecv := false
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			callees = append(callees, fn)
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			if fn, ok := sel.Obj().(*types.Func); ok {
				if isArmedType(sel.Recv()) || isArmedPtr(sel.Recv()) {
					// Methods on an armed handle run only when armed (they
					// nil-check their receiver); don't traverse, but still
					// scan the arguments below.
					armedRecv = true
				} else {
					callees = append(callees, fn)
					if iface, ok := sel.Recv().Underlying().(*types.Interface); ok {
						callees = append(callees, w.impls.Methods(iface, fn)...)
					}
				}
			}
		} else if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			callees = append(callees, fn)
		}
		w.expr(fun.X)
	default:
		w.expr(call.Fun)
	}

	// fmt and errors.New are allocation factories by contract.
	isFmt := false
	for _, fn := range callees {
		if fn.Pkg() == nil {
			continue
		}
		switch {
		case fn.Pkg().Path() == "fmt":
			isFmt = true
			w.report(call.Pos(), "fmt."+fn.Name()+" formats and allocates")
		case fn.Pkg().Path() == "errors" && fn.Name() == "New":
			w.report(call.Pos(), "errors.New allocates")
		}
	}

	// Argument boxing against the callee signature (skipped for fmt calls:
	// the fmt finding subsumes its variadic boxing).
	if !isFmt && !armedRecv {
		if tv, ok := info.Types[call.Fun]; ok && tv.Type != nil {
			if sig, ok := tv.Type.Underlying().(*types.Signature); ok {
				w.boxedArgs(call, sig)
			}
		}
	}

	if !armedRecv {
		for _, fn := range callees {
			w.sum.calls = append(w.sum.calls, callEdge{callee: originName(fn)})
		}
	}
	for _, a := range call.Args {
		w.expr(a)
	}
}

// boxedArgs reports concrete values boxed into interface parameters.
func (w *walker) boxedArgs(call *ast.CallExpr, sig *types.Signature) {
	params := sig.Params()
	if params.Len() == 0 {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // f(xs...) passes the slice through
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if iface := ifaceType(pt); iface != nil && w.boxes(arg, iface) {
			w.report(arg.Pos(), "argument boxes "+typeLabel(w.typeOf(arg))+" into interface "+typeLabel(pt))
		}
	}
}

// boxes reports whether passing e where an interface is expected allocates:
// the static type is concrete, not pointer-shaped, and not a constant.
func (w *walker) boxes(e ast.Expr, _ *types.Interface) bool {
	tv, ok := w.pkg.TypesInfo.Types[e]
	if !ok || tv.IsNil() || tv.Value != nil {
		return false
	}
	t := tv.Type
	if t == nil || ifaceType(t) != nil {
		return false // interface→interface copies the word pair
	}
	return !pointerShaped(t)
}

// pointerShaped reports whether values of t fit the interface data word
// without a heap copy.
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	}
	if b, ok := t.Underlying().(*types.Basic); ok && b.Kind() == types.UnsafePointer {
		return true
	}
	return false
}

// appendCall reports appends whose base is not an explicit reuse slice
// expression (s[:0], s[:n]) — only those make amortized growth intent
// visible at the call site.
func (w *walker) appendCall(call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	if _, ok := ast.Unparen(call.Args[0]).(*ast.SliceExpr); ok {
		return
	}
	w.report(call.Pos(), "append may grow its backing array (capacity not provable; use an explicit s[:0] reuse slice)")
}

// makeCall reports make of slices, maps and channels. A constant-size slice
// make still allocates at run time, so it is reported too, with a distinct
// message.
func (w *walker) makeCall(call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	t := w.typeOf(call.Args[0])
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		allConst := true
		for _, a := range call.Args[1:] {
			if !w.isConst(a) {
				allConst = false
			}
		}
		if allConst {
			w.report(call.Pos(), "make("+typeLabel(t)+") allocates")
		} else {
			w.report(call.Pos(), "make("+typeLabel(t)+") with non-constant size allocates")
		}
	case *types.Map:
		w.report(call.Pos(), "make("+typeLabel(t)+") allocates")
	case *types.Chan:
		w.report(call.Pos(), "make("+typeLabel(t)+") allocates")
	}
}

// isArmedPtr reports whether t is itself one of the armed named types (a
// value receiver on an armed type).
func isArmedPtr(t types.Type) bool {
	return isArmedType(types.NewPointer(t))
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

func ifaceType(t types.Type) *types.Interface {
	if t == nil {
		return nil
	}
	iface, _ := t.Underlying().(*types.Interface)
	return iface
}

// typeLabel renders a type compactly for diagnostics.
func typeLabel(t types.Type) string {
	if t == nil {
		return "?"
	}
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}

// freeVars returns the names of variables the function literal captures
// from its enclosing function, in first-use order.
func freeVars(pkg *analysis.Package, lit *ast.FuncLit) []string {
	var out []string
	seen := map[*types.Var]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pkg.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		// Captured = declared outside the literal but not at package scope.
		if v.Parent() != nil && v.Parent().Parent() == types.Universe {
			return true // package-level var: referenced directly, not captured
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			seen[v] = true
			out = append(out, v.Name())
		}
		return true
	})
	return out
}

// originName normalizes an (possibly instantiated generic) function to its
// declaration's full name, matching the Defs-side summaries.
func originName(fn *types.Func) string {
	return fn.Origin().FullName()
}
