package cfg_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"strings"
	"testing"

	"hamoffload/internal/analysis/cfg"
)

// build parses a function body (the src is wrapped in a package+func) and
// returns its graph plus the fileset for rendering.
func build(t *testing.T, body string) (*cfg.Graph, *token.FileSet) {
	t.Helper()
	src := "package p\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "f.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	fd := file.Decls[0].(*ast.FuncDecl)
	return cfg.New(fd.Body), fset
}

// render prints a node back to source for substring matching.
func render(fset *token.FileSet, n ast.Node) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, n); err != nil {
		return "<?>"
	}
	return buf.String()
}

// blockWith returns the unique reachable block containing a node whose
// source rendering contains substr.
func blockWith(t *testing.T, g *cfg.Graph, fset *token.FileSet, substr string) *cfg.Block {
	t.Helper()
	var found *cfg.Block
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if strings.Contains(render(fset, n), substr) {
				if found != nil && found != b {
					t.Fatalf("%q appears in blocks %d and %d", substr, found.Index, b.Index)
				}
				found = b
			}
		}
	}
	if found == nil {
		t.Fatalf("no block contains %q", substr)
	}
	return found
}

func hasEdge(from, to *cfg.Block) bool {
	for _, s := range from.Succs {
		if s == to {
			return true
		}
	}
	return false
}

// reaches reports whether to is reachable from from along Succs.
func reaches(from, to *cfg.Block) bool {
	seen := map[*cfg.Block]bool{}
	var walk func(*cfg.Block) bool
	walk = func(b *cfg.Block) bool {
		if b == to {
			return true
		}
		seen[b] = true
		for _, s := range b.Succs {
			if !seen[s] && walk(s) {
				return true
			}
		}
		return false
	}
	return walk(from)
}

func TestBranch(t *testing.T) {
	g, fset := build(t, `
		a()
		if cond {
			b()
		} else {
			c()
		}
		d()`)
	ba := blockWith(t, g, fset, "a()")
	bb := blockWith(t, g, fset, "b()")
	bc := blockWith(t, g, fset, "c()")
	bd := blockWith(t, g, fset, "d()")
	if len(ba.Succs) != 2 {
		t.Fatalf("if head has %d successors, want 2", len(ba.Succs))
	}
	if !hasEdge(ba, bb) || !hasEdge(ba, bc) {
		t.Error("if head must edge to both arms")
	}
	if !reaches(bb, bd) || !reaches(bc, bd) {
		t.Error("both arms must reach the join")
	}
	if reaches(bb, bc) || reaches(bc, bb) {
		t.Error("the arms must not reach each other")
	}
}

func TestIfWithoutElse(t *testing.T) {
	g, fset := build(t, `
		if cond {
			b()
		}
		d()`)
	head := blockWith(t, g, fset, "cond")
	bd := blockWith(t, g, fset, "d()")
	// head → then and head → join (the false path).
	if len(head.Succs) != 2 {
		t.Fatalf("if head has %d successors, want 2", len(head.Succs))
	}
	if !reaches(head, bd) {
		t.Error("join must be reachable")
	}
}

func TestLoopBackEdge(t *testing.T) {
	g, fset := build(t, `
		for i := 0; i < n; i++ {
			body()
		}
		after()`)
	head := blockWith(t, g, fset, "i < n")
	body := blockWith(t, g, fset, "body()")
	post := blockWith(t, g, fset, "i++")
	after := blockWith(t, g, fset, "after()")
	if !hasEdge(head, body) || !hasEdge(body, post) || !hasEdge(post, head) {
		t.Error("loop must cycle head → body → post → head")
	}
	if !hasEdge(head, after) {
		t.Error("loop head must edge to the exit path")
	}
	d := cfg.Dominators(g)
	back := cfg.BackEdges(g, d)
	if len(back) != 1 || back[0].From != post || back[0].To != head {
		t.Errorf("back edges = %v, want exactly post→head", back)
	}
	if !d.Dominates(head, body) || !d.Dominates(head, after) {
		t.Error("loop head must dominate body and exit path")
	}
	if d.Dominates(body, after) {
		t.Error("loop body must not dominate the exit path")
	}
}

func TestRangeLoop(t *testing.T) {
	g, fset := build(t, `
		for _, v := range xs {
			body(v)
		}
		after()`)
	head := blockWith(t, g, fset, "xs")
	body := blockWith(t, g, fset, "body(v)")
	after := blockWith(t, g, fset, "after()")
	if !hasEdge(head, body) || !hasEdge(body, head) || !hasEdge(head, after) {
		t.Error("range must cycle head ↔ body and edge to the join")
	}
}

func TestReturnAndPanic(t *testing.T) {
	g, fset := build(t, `
		if cond {
			return
		}
		if bad {
			panic("boom")
		}
		tail()`)
	ret := blockWith(t, g, fset, "return")
	pan := blockWith(t, g, fset, `panic("boom")`)
	if !hasEdge(ret, g.Exit) {
		t.Error("return must edge to Exit")
	}
	if len(pan.Succs) != 0 {
		t.Errorf("panic block has %d successors, want 0 (dead end)", len(pan.Succs))
	}
	tail := blockWith(t, g, fset, "tail()")
	if !hasEdge(tail, g.Exit) {
		t.Error("falling off the end must edge to Exit")
	}
}

func TestLabeledBreak(t *testing.T) {
	g, fset := build(t, `
	outer:
		for {
			for {
				if done {
					break outer
				}
				inner()
			}
		}
		after()`)
	brk := blockWith(t, g, fset, "done")
	after := blockWith(t, g, fset, "after()")
	inner := blockWith(t, g, fset, "inner()")
	// The break-outer block's true arm must reach after() without passing
	// through inner().
	if !reaches(brk, after) {
		t.Error("break outer must reach the statement after the outer loop")
	}
	if reaches(after, inner) {
		t.Error("after() must not reach back into the loops")
	}
}

func TestLabeledContinue(t *testing.T) {
	g, fset := build(t, `
	outer:
		for i := 0; i < n; i++ {
			for {
				continue outer
			}
		}
		after()`)
	post := blockWith(t, g, fset, "i++")
	// continue outer must edge to the outer post block.
	var cont *cfg.Block
	for _, b := range g.Blocks {
		if hasEdge(b, post) && b.Kind == "for.body" {
			cont = b
		}
	}
	_ = cont // the structural property below is the real assertion
	head := blockWith(t, g, fset, "i < n")
	if !reaches(head, blockWith(t, g, fset, "after()")) {
		t.Error("outer loop must still reach after()")
	}
	found := false
	for _, p := range post.Preds {
		if p.Kind != "for.head" {
			found = true
		}
	}
	if !found {
		t.Error("continue outer must edge into the outer post block")
	}
}

func TestGoto(t *testing.T) {
	g, fset := build(t, `
		a()
		goto L
		skipped()
	L:
		b()`)
	ba := blockWith(t, g, fset, "a()")
	bb := blockWith(t, g, fset, "b()")
	skipped := blockWith(t, g, fset, "skipped()")
	if !reaches(ba, bb) {
		t.Error("goto must reach its label")
	}
	if len(skipped.Preds) != 0 {
		t.Error("statements after an unconditional goto are unreachable")
	}
}

func TestSwitchFallthrough(t *testing.T) {
	g, fset := build(t, `
		switch x {
		case 1:
			one()
			fallthrough
		case 2:
			two()
		default:
			dflt()
		}
		after()`)
	one := blockWith(t, g, fset, "one()")
	two := blockWith(t, g, fset, "two()")
	dflt := blockWith(t, g, fset, "dflt()")
	after := blockWith(t, g, fset, "after()")
	if !reaches(one, two) {
		t.Error("fallthrough must edge into the next case body")
	}
	if reaches(one, dflt) {
		t.Error("fallthrough must not reach the default clause")
	}
	for _, b := range []*cfg.Block{two, dflt} {
		if !reaches(b, after) {
			t.Error("every clause must reach the join")
		}
	}
}

func TestDefersCollected(t *testing.T) {
	g, _ := build(t, `
		defer cleanup()
		if cond {
			defer second()
		}
		work()`)
	if len(g.Defers) != 2 {
		t.Fatalf("collected %d defers, want 2", len(g.Defers))
	}
}

func TestSelect(t *testing.T) {
	g, fset := build(t, `
		select {
		case <-a:
			onA()
		case <-b:
			onB()
		}
		after()`)
	onA := blockWith(t, g, fset, "onA()")
	onB := blockWith(t, g, fset, "onB()")
	after := blockWith(t, g, fset, "after()")
	if !reaches(onA, after) || !reaches(onB, after) {
		t.Error("both comm clauses must reach the join")
	}
	if reaches(onA, onB) {
		t.Error("comm clauses must not reach each other")
	}
}

func TestDominatorsDiamond(t *testing.T) {
	g, fset := build(t, `
		top()
		if cond {
			left()
		} else {
			right()
		}
		bottom()`)
	top := blockWith(t, g, fset, "top()")
	left := blockWith(t, g, fset, "left()")
	right := blockWith(t, g, fset, "right()")
	bottom := blockWith(t, g, fset, "bottom()")
	d := cfg.Dominators(g)
	for _, b := range []*cfg.Block{left, right, bottom} {
		if !d.Dominates(top, b) {
			t.Errorf("top must dominate block %d", b.Index)
		}
	}
	if d.Dominates(left, bottom) || d.Dominates(right, bottom) {
		t.Error("neither diamond arm dominates the join")
	}
	if !d.Dominates(bottom, bottom) {
		t.Error("dominance is reflexive")
	}
}

// TestForwardSolver exercises the generic solver directly with a reaching
// "may have called risky()" analysis: the fact is a bool, joined with OR.
func TestForwardSolver(t *testing.T) {
	g, fset := build(t, `
		if cond {
			risky()
		}
		tail()`)
	res := cfg.Forward(g, cfg.Problem[bool]{
		Entry: false,
		Transfer: func(b *cfg.Block, in bool) bool {
			out := in
			for _, n := range b.Nodes {
				if strings.Contains(render(fset, n), "risky()") {
					out = true
				}
			}
			return out
		},
		Join:  func(a, b bool) bool { return a || b },
		Equal: func(a, b bool) bool { return a == b },
	})
	tail := blockWith(t, g, fset, "tail()")
	if !res.In[tail] {
		t.Error("risky() may reach tail() — join must OR the arms")
	}
	risky := blockWith(t, g, fset, "risky()")
	if res.In[risky] {
		t.Error("fact must be false entering the risky block")
	}
}

// TestForwardSolverLoop checks fixpoint iteration around a back edge: a
// fact generated in the loop body must flow back into the loop head.
func TestForwardSolverLoop(t *testing.T) {
	g, fset := build(t, `
		for i := 0; i < n; i++ {
			gen()
		}
		tail()`)
	res := cfg.Forward(g, cfg.Problem[bool]{
		Entry: false,
		Transfer: func(b *cfg.Block, in bool) bool {
			out := in
			for _, n := range b.Nodes {
				if strings.Contains(render(fset, n), "gen()") {
					out = true
				}
			}
			return out
		},
		Join:  func(a, b bool) bool { return a || b },
		Equal: func(a, b bool) bool { return a == b },
	})
	head := blockWith(t, g, fset, "i < n")
	if !res.In[head] {
		t.Error("the loop body's fact must flow around the back edge into the head")
	}
}

// taintStep is a miniature of the borrowck engine as a MaySet step:
// "borrow(x)" gens x, "alias(y, x)" copies x's fact to y, "own(x)" kills x.
// MaySet joins by set union, so a fact killed on only one arm survives.
func taintStep(fset *token.FileSet) func(*cfg.Block, map[string]bool) {
	arg := func(s, verb string) (string, string, bool) {
		rest, ok := strings.CutPrefix(s, verb+"(")
		if !ok {
			return "", "", false
		}
		rest, _, _ = strings.Cut(rest, ")")
		a, b, _ := strings.Cut(rest, ", ")
		return a, b, true
	}
	return func(b *cfg.Block, out map[string]bool) {
		for _, n := range b.Nodes {
			s := render(fset, n)
			if x, _, ok := arg(s, "borrow"); ok {
				out[x] = true
			}
			if y, x, ok := arg(s, "alias"); ok {
				if out[x] {
					out[y] = true
				} else {
					delete(out, y)
				}
			}
			if x, _, ok := arg(s, "own"); ok {
				delete(out, x)
			}
		}
	}
}

// TestForwardSolverBranchKill checks union-join semantics for kills: a fact
// killed on one arm survives the join; a fact killed on both arms does not.
func TestForwardSolverBranchKill(t *testing.T) {
	g, fset := build(t, `
		borrow(x)
		borrow(y)
		if cond {
			own(x)
			own(y)
		} else {
			own(y)
		}
		tail()`)
	res := cfg.MaySet(g, taintStep(fset))
	in := res.In[blockWith(t, g, fset, "tail()")]
	if !in["x"] {
		t.Error("x is killed on only one arm: the union join must keep it")
	}
	if in["y"] {
		t.Error("y is killed on every arm: it must not survive the join")
	}
}

// TestForwardSolverAliasLoop checks that an alias fact created in a loop body
// rides the back edge: on the second iteration the head sees the alias as
// tainted even though the aliasing statement is below its first use.
func TestForwardSolverAliasLoop(t *testing.T) {
	g, fset := build(t, `
		borrow(x)
		for i := 0; i < n; i++ {
			use(y)
			alias(y, x)
		}
		tail()`)
	res := cfg.MaySet(g, taintStep(fset))
	if !res.In[blockWith(t, g, fset, "use(y)")]["y"] {
		t.Error("the alias fact must flow around the back edge into the loop body")
	}
	if !res.In[blockWith(t, g, fset, "tail()")]["y"] {
		t.Error("the alias fact must reach the loop exit")
	}
}

// TestForwardSolverAliasKill checks that re-aliasing from an owned source
// clears the destination's fact without touching the source chain.
func TestForwardSolverAliasKill(t *testing.T) {
	g, fset := build(t, `
		borrow(x)
		alias(y, x)
		own(x)
		alias(y, x)
		tail()`)
	res := cfg.MaySet(g, taintStep(fset))
	in := res.In[blockWith(t, g, fset, "tail()")]
	if in["y"] {
		t.Error("re-aliasing y from the now-owned x must kill y's fact")
	}
	if in["x"] {
		t.Error("x was owned and must stay untainted")
	}
}

func TestFuncBodies(t *testing.T) {
	src := `package p
func a() { go func() { inner() }() }
func (r T) b() {}
var v = func() { lit() }
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "f.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	var names []string
	for _, fb := range cfg.FuncBodies(file) {
		names = append(names, fb.Name)
	}
	want := []string{"a", "a.func", "b", "init"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("FuncBodies = %v, want %v", names, want)
	}
}
