// Package borrowck tracks borrowed byte buffers interprocedurally and
// reports escapes from their validity window.
//
// The zero-copy wire path of this repository rests on ownership contracts
// that are stated in doc comments: Backend.Call may read msg only for the
// duration of the call, Dispatch responses alias scratch and are valid only
// until the next Dispatch, codec Reset re-targets a decoder at a caller's
// buffer. borrowck mechanises those contracts. A parameter named in a
// //ham:borrowed annotation is a borrowed buffer: the function may read it
// and pass it on, but must not store it (or any reslice/alias of it) into a
// struct field, package-level variable, map, channel, captured closure or
// goroutine argument, must not append it as an element into another slice,
// and may return it only when the function itself is annotated
// `//ham:borrowed ... return`. Copying kills the fact: copy(dst, b),
// bytes.Clone(b), string(b) and append(dst, b...) all produce owned memory.
// A //ham:owned annotation on a callee parameter marks deliberate transfer
// of ownership — passing a borrowed buffer there is a diagnostic, passing
// owned memory is the sanctioned hand-off.
//
// Annotations on interface methods (Backend.Call, Server.Dispatch) propagate
// to every implementation by parameter index through the CHA table, so a new
// backend inherits the contract without writing anything. Functions without
// annotations are summarised: if stash(b) stores b into a global, a caller
// passing a borrowed buffer to stash gets the diagnostic at its own call
// site, with the full hop chain to the deep store.
//
// An offload kernel — the impl passed to core.NewFunc1..4 or
// offload.NewFunc1..4, a function literal or a named function — borrows its
// []byte parameters with no annotation: its handler decodes them as views
// of the message, valid until the kernel returns. The kernel may return one
// (the handler encodes the result before the message is released) or bind
// it to another offload; any other escape reports, in whichever package the
// kernel is registered, not only inside the borrowck scope.
//
// Closures carry the taint of what they capture: storing, sending or
// returning a literal that captures a borrowed buffer reports, as does
// launching one on a goroutine; a literal merely passed as a call argument
// (the walk/visitor callback idiom) runs within the window and stays quiet.
//
// Approximations, in the conservative-but-quiet direction: directly invoked
// and deferred function literals discharge within the validity window and
// are not walked; receivers and non-[]byte aggregates do not carry facts
// across call boundaries; summary cycles resolve optimistically.
package borrowck

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"hamoffload/internal/analysis"
	"hamoffload/internal/analysis/callgraph"
	"hamoffload/internal/analysis/cfg"
)

var Analyzer = &analysis.Analyzer{
	Name:      "borrowck",
	Doc:       "borrowed byte buffers (//ham:borrowed) must not escape their validity window: no stores to fields/globals/maps/channels, no closure captures or goroutine hand-offs, no element appends, no unannotated returns; copy/bytes.Clone kill the fact, //ham:owned transfers ownership; an offload kernel (impl of NewFunc1..4) borrows its []byte parameters wherever it is registered",
	RunModule: runModule,
}

const (
	markerBorrowed = "ham:borrowed"
	markerOwned    = "ham:owned"
	maxOrigins     = 64
)

// annotation is the parsed ownership contract of one function, keyed by
// parameter index so interface annotations can propagate to implementations
// whose parameters are unnamed or named differently.
type annotation struct {
	borrowed map[int]bool
	owned    map[int]bool
	ret      bool // result is borrowed (valid-until-next-call scratch or alias of a borrowed param)
	kernel   bool // an offload kernel: its []byte params are borrowed, and it may return them
}

func (a *annotation) empty() bool {
	return a == nil || (len(a.borrowed) == 0 && len(a.owned) == 0 && !a.ret && !a.kernel)
}

func mergeAnn(dst, src *annotation) *annotation {
	if src.empty() {
		return dst
	}
	if dst == nil {
		dst = &annotation{borrowed: map[int]bool{}, owned: map[int]bool{}}
	}
	for i := range src.borrowed {
		dst.borrowed[i] = true
	}
	for i := range src.owned {
		dst.owned[i] = true
	}
	dst.ret = dst.ret || src.ret
	dst.kernel = dst.kernel || src.kernel
	return dst
}

// escInfo describes how a parameter escapes inside a function, for
// propagation to call sites.
type escInfo struct {
	what  string   // "stored into struct field d.buf"
	site  string   // file:line of the deep store
	chain []string // callee hop names below the recording function
}

// summary is the interprocedural digest of one function body.
type summary struct {
	escapes  map[int]*escInfo // param index -> first escape
	returned map[int]bool     // param index may alias a returned value
}

type funcInfo struct {
	name       string // types.Func.FullName of the declared function; a kernel literal's label
	pkg        *analysis.Package
	body       *ast.BlockStmt
	paramNames []string
	paramTypes []types.Type
}

// kernelRegistrars are the functions whose last parameter, impl, is an
// offload kernel: the handler they register hands impl each []byte
// argument as a view of the message (core.argCodecFor).
var kernelRegistrars = map[string]bool{
	"hamoffload/internal/core.NewFunc1": true,
	"hamoffload/internal/core.NewFunc2": true,
	"hamoffload/internal/core.NewFunc3": true,
	"hamoffload/internal/core.NewFunc4": true,
	"hamoffload/offload.NewFunc1":       true,
	"hamoffload/offload.NewFunc2":       true,
	"hamoffload/offload.NewFunc3":       true,
	"hamoffload/offload.NewFunc4":       true,
}

type checker struct {
	pass     *analysis.ModulePass
	impls    *callgraph.ImplTable
	info     map[string]*funcInfo
	order    []string
	anns     map[string]*annotation // by full function name; includes interface methods
	sums     map[string]*summary
	active   map[string]bool // summary computation in progress (cycle break)
	reported map[string]bool // pos + origin desc
}

func runModule(pass *analysis.ModulePass) error {
	c := &checker{
		pass:     pass,
		impls:    callgraph.NewImplTable(pass.Pkgs),
		info:     map[string]*funcInfo{},
		anns:     map[string]*annotation{},
		sums:     map[string]*summary{},
		active:   map[string]bool{},
		reported: map[string]bool{},
	}
	c.collect()
	c.collectKernels()
	for _, name := range c.order {
		c.analyze(name)
	}
	return nil
}

// collect indexes every declared function body and parses //ham:borrowed
// and //ham:owned annotations, including interface method annotations which
// propagate to all implementations by parameter index.
func (c *checker) collect() {
	for _, pkg := range c.pass.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					c.collectFunc(pkg, d)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						if _, ok := ts.Type.(*ast.InterfaceType); ok {
							c.collectInterface(pkg, ts)
						}
					}
				}
			}
		}
	}
}

func (c *checker) collectFunc(pkg *analysis.Package, d *ast.FuncDecl) {
	if d.Body == nil {
		return
	}
	obj, ok := pkg.TypesInfo.Defs[d.Name].(*types.Func)
	if !ok {
		return
	}
	name := obj.FullName()
	names, ptypes := fieldListParams(pkg, d.Type.Params)
	c.info[name] = &funcInfo{name: name, pkg: pkg, body: d.Body, paramNames: names, paramTypes: ptypes}
	c.order = append(c.order, name)
	if ann := c.parseAnn(pkg, d.Doc, names); !ann.empty() {
		c.anns[name] = mergeAnn(c.anns[name], ann)
	}
}

// collectKernels finds every registration of an offload kernel and marks
// the kernel: a named function by annotation, a function literal as a
// function of its own, which nothing else walks.
func (c *checker) collectKernels() {
	for _, pkg := range c.pass.Pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 || !kernelRegistrars[calleeName(pkg.TypesInfo, call.Fun)] {
					return true
				}
				ann := &annotation{kernel: true}
				switch impl := ast.Unparen(call.Args[len(call.Args)-1]).(type) {
				case *ast.FuncLit:
					label := "kernel literal"
					if tv := pkg.TypesInfo.Types[call.Args[0]]; tv.Value != nil && tv.Value.Kind() == constant.String {
						label = "kernel " + constant.StringVal(tv.Value)
					}
					if c.info[label] != nil {
						label += " at " + c.pass.Fset.Position(impl.Pos()).String()
					}
					names, ptypes := fieldListParams(pkg, impl.Type.Params)
					c.info[label] = &funcInfo{name: label, pkg: pkg, body: impl.Body, paramNames: names, paramTypes: ptypes}
					c.order = append(c.order, label)
					c.anns[label] = ann
				default:
					if name := calleeName(pkg.TypesInfo, impl); c.info[name] != nil {
						c.anns[name] = mergeAnn(c.anns[name], ann)
					}
				}
				return true
			})
		}
	}
}

// calleeName is the full name of the function e denotes — an identifier
// or a qualified one, instantiated or not — or "" when it is none.
func calleeName(info *types.Info, e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.IndexExpr:
		e = x.X
	case *ast.IndexListExpr:
		e = x.X
	}
	var id *ast.Ident
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return ""
	}
	if fn, ok := info.Uses[id].(*types.Func); ok {
		return fn.Origin().FullName()
	}
	return ""
}

// collectInterface registers annotations written on interface method doc
// comments — under the interface method's own name (consulted at dynamic
// call sites) and under every implementation found by the CHA table.
func (c *checker) collectInterface(pkg *analysis.Package, ts *ast.TypeSpec) {
	tn, ok := pkg.TypesInfo.Defs[ts.Name].(*types.TypeName)
	if !ok {
		return
	}
	iface, ok := tn.Type().Underlying().(*types.Interface)
	if !ok {
		return
	}
	it := ts.Type.(*ast.InterfaceType)
	for _, f := range it.Methods.List {
		if len(f.Names) != 1 || f.Doc == nil {
			continue
		}
		ft, ok := f.Type.(*ast.FuncType)
		if !ok {
			continue
		}
		names, _ := fieldListParams(pkg, ft.Params)
		ann := c.parseAnn(pkg, f.Doc, names)
		if ann.empty() {
			continue
		}
		mfn, ok := pkg.TypesInfo.Defs[f.Names[0]].(*types.Func)
		if !ok {
			continue
		}
		c.anns[mfn.FullName()] = mergeAnn(c.anns[mfn.FullName()], ann)
		for _, impl := range c.impls.Methods(iface, mfn) {
			n := impl.Origin().FullName()
			c.anns[n] = mergeAnn(c.anns[n], ann)
		}
	}
}

// parseAnn extracts //ham:borrowed and //ham:owned lines from a doc comment.
// Each names parameters of the annotated function; "return" in a borrowed
// line marks the result borrowed.
func (c *checker) parseAnn(pkg *analysis.Package, doc *ast.CommentGroup, paramNames []string) *annotation {
	if doc == nil {
		return nil
	}
	var ann *annotation
	for _, cm := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(cm.Text, "//"))
		var marker string
		switch {
		case strings.HasPrefix(text, markerBorrowed):
			marker = markerBorrowed
		case strings.HasPrefix(text, markerOwned):
			marker = markerOwned
		default:
			continue
		}
		if ann == nil {
			ann = &annotation{borrowed: map[int]bool{}, owned: map[int]bool{}}
		}
		for _, f := range strings.Fields(strings.TrimPrefix(text, marker)) {
			if f == "return" && marker == markerBorrowed {
				ann.ret = true
				continue
			}
			idx := -1
			for i, n := range paramNames {
				if n == f {
					idx = i
					break
				}
			}
			if idx < 0 {
				c.pass.Reportf(cm.Pos(), "//%s names %q, which is not a parameter of the annotated function", marker, f)
				continue
			}
			if marker == markerBorrowed {
				ann.borrowed[idx] = true
			} else {
				ann.owned[idx] = true
			}
		}
	}
	return ann
}

// fieldListParams expands a parameter field list into parallel name and type
// slices (grouped declarations expanded, unnamed parameters as "").
func fieldListParams(pkg *analysis.Package, fl *ast.FieldList) ([]string, []types.Type) {
	var names []string
	var ptypes []types.Type
	if fl == nil {
		return nil, nil
	}
	for _, f := range fl.List {
		t := pkg.TypesInfo.TypeOf(f.Type)
		if len(f.Names) == 0 {
			names = append(names, "")
			ptypes = append(ptypes, t)
			continue
		}
		for _, n := range f.Names {
			names = append(names, n.Name)
			ptypes = append(ptypes, t)
		}
	}
	return names, ptypes
}

func (c *checker) annOf(name string) *annotation { return c.anns[name] }

// analyze runs the dataflow over one function body, emitting diagnostics for
// borrowed origins and recording a summary for unannotated parameters. It is
// memoized; cycles resolve to the optimistic in-progress summary.
func (c *checker) analyze(name string) *summary {
	if s, ok := c.sums[name]; ok {
		return s
	}
	fi := c.info[name]
	if fi == nil {
		return nil
	}
	s := &summary{escapes: map[int]*escInfo{}, returned: map[int]bool{}}
	c.sums[name] = s
	c.active[name] = true
	defer delete(c.active, name)

	ng := &engine{c: c, fi: fi, ann: c.annOf(name), sum: s, resOrigin: map[token.Pos]int{}}
	entry := state{}
	for i, pname := range fi.paramNames {
		if pname == "" || pname == "_" || !isByteSlice(fi.paramTypes[i]) {
			continue
		}
		if ng.ann != nil && ng.ann.owned[i] {
			continue // owned inside: the function may retain it
		}
		o := origin{param: i, borrowed: ng.ann != nil && ng.ann.borrowed[i], desc: fmt.Sprintf("buffer %q", pname)}
		if ng.ann != nil && ng.ann.kernel {
			o.borrowed, o.kernel, o.desc = true, true, fmt.Sprintf("kernel argument %q", pname)
		}
		bit := ng.addOrigin(o)
		if bit != 0 {
			entry[pname] = bit
		}
	}
	ng.prepRanges(fi.body)

	g := cfg.New(fi.body)
	res := cfg.Forward(g, cfg.Problem[state]{
		Entry:    entry,
		Transfer: ng.transfer,
		Join:     joinState,
		Equal:    equalState,
	})
	ng.emit = true
	for _, b := range g.Blocks {
		in, ok := res.In[b]
		if !ok {
			continue // unreachable
		}
		ng.transfer(b, in)
	}
	return s
}

// summaryOf returns the summary of a callee with a body, or nil for
// functions outside the module (assumed non-retaining).
func (c *checker) summaryOf(name string) *summary {
	if c.active[name] {
		return c.sums[name] // optimistic partial summary for cycles
	}
	if c.info[name] == nil {
		return nil
	}
	return c.analyze(name)
}

// --- dataflow state ---

// state maps local variable names to origin bitmasks. Zero masks are never
// stored. Keying by name (rather than object) trades shadowing precision for
// simplicity, matching the other dataflow analyzers in this module.
type state map[string]uint64

func cloneState(s state) state {
	out := make(state, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

func joinState(a, b state) state {
	out := cloneState(a)
	for k, v := range b {
		out[k] |= v
	}
	return out
}

func equalState(a, b state) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

type origin struct {
	param    int // parameter index, or -1 for a borrowed call result
	borrowed bool
	kernel   bool // a kernel's argument: reported wherever the kernel lives
	desc     string
}

type engine struct {
	c         *checker
	fi        *funcInfo
	ann       *annotation
	sum       *summary
	origins   []origin
	resOrigin map[token.Pos]int     // call pos -> origin index (stable across solver iterations)
	rangeVal  map[ast.Expr]ast.Expr // range Key/Value expr -> range X
	emit      bool                  // replay phase: report and record
}

func (ng *engine) addOrigin(o origin) uint64 {
	if len(ng.origins) >= maxOrigins {
		return 0 // beyond capacity: untracked (quiet, not wrong reports)
	}
	ng.origins = append(ng.origins, o)
	return 1 << (len(ng.origins) - 1)
}

// resultOriginBit returns the stable origin bit for a borrowed-result call
// site, allocating it on first encounter.
func (ng *engine) resultOriginBit(pos token.Pos, callee string) uint64 {
	if i, ok := ng.resOrigin[pos]; ok {
		return 1 << i
	}
	bit := ng.addOrigin(origin{param: -1, borrowed: true, desc: "result of " + callee})
	if bit != 0 {
		ng.resOrigin[pos] = len(ng.origins) - 1
	}
	return bit
}

// prepRanges maps range-clause Key/Value expressions to the ranged operand,
// so the per-node transfer (which sees the head expressions individually)
// can bind element aliases: `for _, sub := range subs` taints sub with subs'
// mask.
func (ng *engine) prepRanges(body *ast.BlockStmt) {
	ng.rangeVal = map[ast.Expr]ast.Expr{}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if rs, ok := n.(*ast.RangeStmt); ok {
			if rs.Key != nil {
				ng.rangeVal[rs.Key] = rs.X
			}
			if rs.Value != nil {
				ng.rangeVal[rs.Value] = rs.X
			}
		}
		return true
	})
}

func (ng *engine) transfer(b *cfg.Block, in state) state {
	st := cloneState(in)
	for _, n := range b.Nodes {
		ng.node(st, n)
	}
	return st
}

func (ng *engine) node(st state, n ast.Node) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		ng.assign(st, n)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					var m uint64
					if i < len(vs.Values) {
						m = ng.eval(st, vs.Values[i])
					}
					ng.store(st, name, m)
				}
			}
		}
	case *ast.ReturnStmt:
		ng.ret(st, n)
	case *ast.ExprStmt:
		ng.eval(st, n.X)
	case *ast.SendStmt:
		ng.eval(st, n.Chan)
		if m := ng.eval(st, n.Value); m != 0 {
			ng.escape(m, "sent on a channel", n.Value.Pos(), "", nil)
		}
	case *ast.GoStmt:
		ng.goStmt(st, n)
	case *ast.DeferStmt:
		// Deferred calls discharge before the function returns, inside the
		// borrow's validity window — not an escape.
	case *ast.IncDecStmt:
		ng.eval(st, n.X)
	case ast.Expr:
		if x, ok := ng.rangeVal[n]; ok {
			m := ng.eval(st, x)
			if id, ok := n.(*ast.Ident); ok && id.Name != "_" {
				if isSliceOfSlices(ng.fi.pkg.TypesInfo.TypeOf(x)) {
					ng.setMask(st, id.Name, m)
				} else {
					ng.setMask(st, id.Name, 0)
				}
			}
			return
		}
		ng.eval(st, n)
	}
}

func (ng *engine) assign(st state, as *ast.AssignStmt) {
	// Multi-value RHS: one call/type-assert producing several results.
	if len(as.Lhs) > 1 && len(as.Rhs) == 1 {
		m := ng.eval(st, as.Rhs[0])
		for _, l := range as.Lhs {
			lm := m
			if t := ng.fi.pkg.TypesInfo.TypeOf(l); lm != 0 && (!trackable(t) || isError(t)) {
				lm = 0 // an ok/err result cannot carry the buffer
			}
			ng.store(st, l, lm)
		}
		return
	}
	for i, l := range as.Lhs {
		if i >= len(as.Rhs) {
			break
		}
		ng.store(st, l, ng.eval(st, as.Rhs[i]))
	}
}

// store applies an assignment of mask m to an lvalue: locals gen/kill the
// fact, everything longer-lived is an escape.
func (ng *engine) store(st state, lhs ast.Expr, m uint64) {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return
		}
		if v, ok := ng.objOf(l).(*types.Var); ok && isPkgLevel(v) {
			if m != 0 {
				ng.escape(m, "stored into package-level variable "+l.Name, l.Pos(), "", nil)
			}
			return
		}
		ng.setMask(st, l.Name, m)
	case *ast.SelectorExpr:
		ng.eval(st, l.X)
		if m == 0 {
			return
		}
		if v, ok := ng.fi.pkg.TypesInfo.Uses[l.Sel].(*types.Var); ok && isPkgLevel(v) {
			ng.escape(m, "stored into package-level variable "+l.Sel.Name, l.Pos(), "", nil)
			return
		}
		ng.escape(m, "stored into struct field "+types.ExprString(l), l.Pos(), "", nil)
	case *ast.IndexExpr:
		ng.eval(st, l.Index)
		xt := ng.fi.pkg.TypesInfo.TypeOf(l.X)
		if _, isMap := typeUnder(xt).(*types.Map); isMap {
			ng.eval(st, l.X)
			if m != 0 {
				ng.escape(m, "stored into a map", l.Pos(), "", nil)
			}
			return
		}
		// Element store into a local slice taints the container; if the
		// container later escapes, the escape reports there.
		if id, ok := ast.Unparen(l.X).(*ast.Ident); ok {
			if v, ok := ng.objOf(id).(*types.Var); !ok || !isPkgLevel(v) {
				ng.setMask(st, id.Name, st[id.Name]|m)
				return
			}
		}
		ng.eval(st, l.X)
		if m != 0 {
			ng.escape(m, "stored into an element of a longer-lived slice", l.Pos(), "", nil)
		}
	case *ast.StarExpr:
		ng.eval(st, l.X)
		if m != 0 {
			ng.escape(m, "stored through a pointer", l.Pos(), "", nil)
		}
	default:
		ng.eval(st, lhs)
	}
}

func (ng *engine) setMask(st state, name string, m uint64) {
	if m == 0 {
		delete(st, name)
		return
	}
	st[name] = m
}

func (ng *engine) ret(st state, rs *ast.ReturnStmt) {
	for _, e := range rs.Results {
		m := ng.eval(st, e)
		if m == 0 || !ng.emit {
			continue
		}
		for i := range ng.origins {
			if m&(1<<i) == 0 {
				continue
			}
			o := ng.origins[i]
			if o.param >= 0 && !o.borrowed {
				// Unannotated parameter flowing to a result: callers'
				// results alias their argument (the openFlow pattern).
				ng.sum.returned[o.param] = true
				continue
			}
			if ng.ann != nil && (ng.ann.ret || ng.ann.kernel) {
				continue // declared, or a kernel's result, encoded before the message is released
			}
			ng.reportOrigin(o, "returned from a function not annotated \"//ham:borrowed ... return\"", e.Pos(), "", nil)
		}
	}
}

func (ng *engine) goStmt(st state, g *ast.GoStmt) {
	call := g.Call
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		ng.checkCaptures(st, lit, "captured by a goroutine closure")
	} else {
		ng.eval(st, call.Fun)
	}
	for _, a := range call.Args {
		if m := ng.eval(st, a); m != 0 {
			ng.escape(m, "passed to a goroutine", a.Pos(), "", nil)
		}
	}
}

// eval computes the origin mask of an expression, reporting escapes and
// interprocedural violations found along the way.
func (ng *engine) eval(st state, e ast.Expr) uint64 {
	switch e := e.(type) {
	case nil:
		return 0
	case *ast.Ident:
		return st[e.Name]
	case *ast.ParenExpr:
		return ng.eval(st, e.X)
	case *ast.SliceExpr:
		ng.eval(st, e.Low)
		ng.eval(st, e.High)
		ng.eval(st, e.Max)
		return ng.eval(st, e.X) // a reslice aliases the same backing array
	case *ast.UnaryExpr:
		return ng.eval(st, e.X) // &x carries x's taint
	case *ast.StarExpr:
		return ng.eval(st, e.X)
	case *ast.CompositeLit:
		var m uint64
		for _, el := range e.Elts {
			m |= ng.eval(st, el)
		}
		return m // aggregate carrying a borrowed buffer is tainted as a whole
	case *ast.KeyValueExpr:
		ng.eval(st, e.Key)
		return ng.eval(st, e.Value)
	case *ast.CallExpr:
		return ng.call(st, e)
	case *ast.IndexExpr:
		ng.eval(st, e.Index)
		return ng.eval(st, e.X) // element of a tainted container
	case *ast.IndexListExpr:
		return ng.eval(st, e.X)
	case *ast.SelectorExpr:
		ng.eval(st, e.X)
		return 0 // field reads yield unknown (owned) memory
	case *ast.BinaryExpr:
		ng.eval(st, e.X)
		ng.eval(st, e.Y)
		return 0
	case *ast.TypeAssertExpr:
		return ng.eval(st, e.X)
	case *ast.FuncLit:
		// The literal is tainted by what it captures; the escape (if any)
		// reports where the closure value itself escapes — stored, sent,
		// returned or launched. A literal merely passed as a call argument
		// (the walk/visitor idiom) runs within the window and stays quiet.
		return ng.captureMask(st, e)
	}
	return 0
}

// checkCaptures reports borrowed variables captured by a goroutine literal,
// which escapes the window by construction.
func (ng *engine) checkCaptures(st state, lit *ast.FuncLit, what string) {
	seen := map[string]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := ng.fi.pkg.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() || isPkgLevel(v) || seen[v.Name()] {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return true // declared inside the literal
		}
		if m := st[v.Name()]; m != 0 {
			seen[v.Name()] = true
			ng.escape(m, what, id.Pos(), "", nil)
		}
		return true
	})
}

// captureMask unions the masks of the borrowed outer variables a function
// literal captures, tainting the closure value itself.
func (ng *engine) captureMask(st state, lit *ast.FuncLit) uint64 {
	var mask uint64
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := ng.fi.pkg.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() || isPkgLevel(v) {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return true // declared inside the literal
		}
		mask |= st[v.Name()]
		return true
	})
	return mask
}

func (ng *engine) call(st state, call *ast.CallExpr) uint64 {
	info := ng.fi.pkg.TypesInfo

	// Type conversion: string(b) and []T(b) to an unrelated element copy or
	// re-type; conversions between byte-slice types alias the same array.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		m := ng.eval(st, call.Args[0])
		if isByteSlice(info.TypeOf(call.Args[0])) && isByteSlice(tv.Type) {
			return m
		}
		return 0
	}

	// Builtins: append aliases/copies per form; copy produces owned bytes.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			if id.Name == "append" {
				return ng.appendCall(st, call)
			}
			for _, a := range call.Args {
				ng.eval(st, a)
			}
			return 0
		}
	}

	// Directly invoked literal: runs here, inside the window.
	if _, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		for _, a := range call.Args {
			ng.eval(st, a)
		}
		return 0
	}

	// Resolve callees: static calls plus CHA fan-out at interface calls.
	var callees []*types.Func
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			callees = append(callees, fn)
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			if fn, ok := sel.Obj().(*types.Func); ok {
				callees = append(callees, fn)
				if iface, ok := sel.Recv().Underlying().(*types.Interface); ok {
					callees = append(callees, ng.c.impls.Methods(iface, fn)...)
				}
			}
		} else if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			callees = append(callees, fn)
		}
		ng.eval(st, fun.X)
	default:
		ng.eval(st, call.Fun)
	}

	// bytes.Clone / slices.Clone return fresh memory: the fact dies.
	for _, fn := range callees {
		if p := fn.Pkg(); p != nil && fn.Name() == "Clone" && (p.Path() == "bytes" || p.Path() == "slices") {
			for _, a := range call.Args {
				ng.eval(st, a)
			}
			return 0
		}
	}

	argMasks := make([]uint64, len(call.Args))
	for i, a := range call.Args {
		argMasks[i] = ng.eval(st, a)
	}

	var res uint64
	for _, fn := range callees {
		name := fn.Origin().FullName()
		ann := ng.c.annOf(name)
		sum := ng.c.summaryOf(name)
		sig, _ := fn.Type().(*types.Signature)
		nparams := 0
		if sig != nil {
			nparams = sig.Params().Len()
		}
		for i, m := range argMasks {
			if m == 0 || !isByteSlice(info.TypeOf(call.Args[i])) {
				continue // only byte buffers carry the contract across calls
			}
			pi := i
			if sig != nil && sig.Variadic() && pi >= nparams-1 {
				pi = nparams - 1
			}
			if pi >= nparams {
				continue
			}
			switch {
			case ann != nil && ann.owned[pi]:
				ng.escape(m, fmt.Sprintf("passed to %s, whose parameter takes ownership (//ham:owned); copy before handing it off", shortName(name)), call.Args[i].Pos(), "", nil)
			case ann != nil && ann.borrowed[pi]:
				// The callee borrows and is checked on its own.
			case sum != nil:
				if esc := sum.escapes[pi]; esc != nil {
					ng.escape(m, esc.what, call.Args[i].Pos(), esc.site, append([]string{shortName(name)}, esc.chain...))
				}
				if sum.returned[pi] {
					res |= m // result aliases the argument
				}
			default:
				// No body in the module: assumed non-retaining, owned result.
			}
		}
		if ann != nil && ann.ret {
			res |= ng.resultOriginBit(call.Pos(), shortName(name))
		}
	}
	return res
}

func (ng *engine) appendCall(st state, call *ast.CallExpr) uint64 {
	if len(call.Args) == 0 {
		return 0
	}
	dst := ng.eval(st, call.Args[0])
	if call.Ellipsis.IsValid() {
		if len(call.Args) == 2 {
			ng.eval(st, call.Args[1]) // bytes copied out element-wise: kill
		}
		return dst
	}
	for _, a := range call.Args[1:] {
		m := ng.eval(st, a)
		if m != 0 && isByteSlice(ng.fi.pkg.TypesInfo.TypeOf(a)) {
			// Reported here, at the root cause; the container is not
			// re-tainted, so the store of the grown slice stays quiet.
			ng.escape(m, "appended as an element into another slice (the element aliases the borrowed buffer)", a.Pos(), "", nil)
		}
	}
	return dst
}

// escape reports borrowed origins in mask m and records unannotated
// parameter origins into the summary for call-site propagation.
func (ng *engine) escape(m uint64, what string, pos token.Pos, site string, chain []string) {
	if !ng.emit || m == 0 {
		return
	}
	for i := range ng.origins {
		if m&(1<<i) == 0 {
			continue
		}
		o := ng.origins[i]
		if o.borrowed || o.param < 0 {
			ng.reportOrigin(o, what, pos, site, chain)
			continue
		}
		if ng.sum.escapes[o.param] == nil {
			s := site
			if s == "" {
				s = ng.c.pass.Fset.Position(pos).String()
			}
			ng.sum.escapes[o.param] = &escInfo{what: what, site: s, chain: chain}
		}
	}
}

func (ng *engine) reportOrigin(o origin, what string, pos token.Pos, site string, chain []string) {
	key := fmt.Sprintf("%d|%s|%s", pos, o.desc, what)
	if ng.c.reported[key] {
		return
	}
	ng.c.reported[key] = true
	full := append([]string{shortName(ng.fi.name)}, chain...)
	msg := fmt.Sprintf("borrowed %s %s", o.desc, what)
	if site != "" {
		msg += " at " + site
	}
	msg += " (chain: " + strings.Join(full, " → ") + ")"
	if o.kernel {
		ng.c.pass.ReportfUnscoped(pos, "%s", msg)
		return
	}
	ng.c.pass.Reportf(pos, "%s", msg)
}

func (ng *engine) objOf(id *ast.Ident) types.Object {
	info := ng.fi.pkg.TypesInfo
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// --- type helpers ---

func typeUnder(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	return t.Underlying()
}

func isByteSlice(t types.Type) bool {
	sl, ok := typeUnder(t).(*types.Slice)
	if !ok {
		return false
	}
	b, ok := typeUnder(sl.Elem()).(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8)
}

func isSliceOfSlices(t types.Type) bool {
	sl, ok := typeUnder(t).(*types.Slice)
	if !ok {
		return false
	}
	_, ok = typeUnder(sl.Elem()).(*types.Slice)
	return ok
}

// trackable reports whether a value of type t can carry a buffer alias:
// slices, pointers, interfaces, structs, channels and maps can; scalars,
// strings and functions cannot.
func trackable(t types.Type) bool {
	switch u := typeUnder(t).(type) {
	case *types.Slice, *types.Pointer, *types.Interface, *types.Struct, *types.Chan, *types.Map, *types.Array:
		return true
	case *types.Basic:
		_ = u
		return false
	}
	return false
}

// isError reports whether t is the error interface: a multi-value call's
// error result is the failure, never an alias of the buffer it returns.
func isError(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

func isPkgLevel(v *types.Var) bool {
	if v.IsField() {
		return false
	}
	if p := v.Pkg(); p != nil && v.Parent() == p.Scope() {
		return true
	}
	return false
}

// shortName trims the module path prefix out of a full function name so
// diagnostics stay readable: (*hamoffload/internal/ham.Binary).Dispatch
// becomes (*ham.Binary).Dispatch.
func shortName(full string) string {
	return strings.NewReplacer("hamoffload/internal/", "", "hamoffload/", "").Replace(full)
}
