package cfg

import (
	"go/token"
	"maps"
	"slices"
)

// This file holds the graph algorithms the analyzers share: a generic
// forward worklist solver, its "may" instance over sets, dominator
// computation (itself phrased as a forward dataflow problem over the
// solver), and back-edge classification for loop-aware path reasoning.

// A Problem describes one forward dataflow analysis. Facts of type T flow
// from Entry along edges; Join merges facts where paths meet; Transfer
// pushes a fact through one block.
//
// The solver is optimistic: a predecessor whose fact has not been computed
// yet contributes nothing to a join. With a monotone Transfer/Join this
// converges to the maximal-fixpoint solution for union-style problems and
// to the standard iterative solution for intersection-style problems
// (dominators).
type Problem[T any] struct {
	// Entry is the fact at function entry.
	Entry T
	// Transfer computes the fact at the end of b from the fact at its
	// start. It must not mutate its input.
	Transfer func(b *Block, in T) T
	// Join merges the facts of two incoming edges. It must not mutate its
	// inputs.
	Join func(a, b T) T
	// Equal detects the fixpoint.
	Equal func(a, b T) bool
}

// Result holds the solved facts: In at block entry, Out at block exit.
// Blocks unreachable from Entry are absent from both maps.
type Result[T any] struct {
	In, Out map[*Block]T
}

// Forward solves p over g by worklist iteration in reverse postorder.
func Forward[T any](g *Graph, p Problem[T]) Result[T] {
	order := postorder(g)
	// Reverse postorder: process a block after as many predecessors as
	// possible so most functions converge in one pass.
	rpo := make([]*Block, len(order))
	for i, b := range order {
		rpo[len(order)-1-i] = b
	}
	reachable := make(map[*Block]bool, len(order))
	for _, b := range order {
		reachable[b] = true
	}

	res := Result[T]{In: map[*Block]T{}, Out: map[*Block]T{}}
	res.In[g.Entry] = p.Entry
	res.Out[g.Entry] = p.Transfer(g.Entry, p.Entry)

	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			if b == g.Entry {
				continue
			}
			var in T
			have := false
			for _, pred := range b.Preds {
				if !reachable[pred] {
					continue
				}
				out, ok := res.Out[pred]
				if !ok {
					continue
				}
				if !have {
					in, have = out, true
				} else {
					in = p.Join(in, out)
				}
			}
			if !have {
				continue // no computed predecessor yet
			}
			if old, ok := res.In[b]; ok && p.Equal(old, in) {
				continue
			}
			res.In[b] = in
			res.Out[b] = p.Transfer(b, in)
			changed = true
		}
	}
	return res
}

// MaySet solves the forward "may" problem whose facts are sets of K: a key
// is in the set at a point when some path from entry put it there and did
// not take it out again. step applies one block's gens and kills, in order
// and in place, to the set it is handed (a copy of the block's In); facts
// start empty and join by union, so a key killed on only one arm survives.
// Replaying step over a copy of Result.In[b] recovers the set at any point
// inside b.
func MaySet[K comparable](g *Graph, step func(b *Block, set map[K]bool)) Result[map[K]bool] {
	type set = map[K]bool
	return Forward(g, Problem[set]{
		Entry: set{},
		Transfer: func(b *Block, in set) set {
			out := maps.Clone(in)
			step(b, out)
			return out
		},
		Join: func(a, b set) set {
			out := maps.Clone(a)
			maps.Copy(out, b)
			return out
		},
		Equal: maps.Equal[set, set],
	})
}

// A Step is one event of the open/discharge analysis acqrel and spanend
// share. A step with a valid Open position opens an obligation there, owned
// by Owner (a semaphore's receiver, a closer's variable); a step with Open
// == token.NoPos discharges every obligation Owner holds. A deferred
// discharge is an ordinary step at its defer statement: once the defer has
// run, every exit discharges.
type Step[O comparable] struct {
	Open  token.Pos
	Owner O
}

// A Leak is an obligation that may reach g.Exit still open, and the first
// exit block (by edge order) it leaves through: one ending in the return
// statement, or the body's fall-through end.
type Leak[O comparable] struct {
	Pos   token.Pos
	Owner O
	From  *Block
}

// Leaks runs steps, each block's events in order, through MaySet and
// reports what may still be open at g.Exit, sorted by position.
func Leaks[O comparable](g *Graph, steps map[*Block][]Step[O]) []Leak[O] {
	owner := map[token.Pos]O{}
	for _, ss := range steps {
		for _, s := range ss {
			if s.Open.IsValid() {
				owner[s.Open] = s.Owner
			}
		}
	}
	res := MaySet(g, func(b *Block, open map[token.Pos]bool) {
		for _, s := range steps[b] {
			if s.Open.IsValid() {
				open[s.Open] = true
				continue
			}
			for pos := range open {
				if owner[pos] == s.Owner {
					delete(open, pos)
				}
			}
		}
	})
	var leaks []Leak[O]
	seen := map[token.Pos]bool{}
	for _, from := range g.Exit.Preds {
		for pos := range res.Out[from] {
			if !seen[pos] {
				seen[pos] = true
				leaks = append(leaks, Leak[O]{Pos: pos, Owner: owner[pos], From: from})
			}
		}
	}
	slices.SortFunc(leaks, func(a, b Leak[O]) int { return int(a.Pos - b.Pos) })
	return leaks
}

// postorder returns the blocks reachable from Entry in DFS postorder.
func postorder(g *Graph) []*Block {
	var order []*Block
	seen := map[*Block]bool{}
	var visit func(*Block)
	visit = func(b *Block) {
		seen[b] = true
		for _, s := range b.Succs {
			if !seen[s] {
				visit(s)
			}
		}
		order = append(order, b)
	}
	visit(g.Entry)
	return order
}

// Dominance answers "does every path from entry to b pass through a?"
// queries for one graph.
type Dominance struct {
	dom map[*Block]map[*Block]bool // dom[b] = blocks dominating b (incl. b)
}

// Dominators computes the dominance relation of g, phrased as a forward
// dataflow problem: dom(b) = {b} ∪ ⋂ preds dom(p), solved over Forward
// with set intersection as the join.
func Dominators(g *Graph) *Dominance {
	type set = map[*Block]bool
	res := Forward(g, Problem[set]{
		Entry: set{},
		Transfer: func(b *Block, in set) set {
			out := maps.Clone(in)
			out[b] = true
			return out
		},
		Join: func(a, b set) set {
			out := set{}
			for k := range a {
				if b[k] {
					out[k] = true
				}
			}
			return out
		},
		Equal: maps.Equal[set, set],
	})
	d := &Dominance{dom: map[*Block]map[*Block]bool{}}
	for b, in := range res.In {
		all := maps.Clone(in)
		all[b] = true
		d.dom[b] = all
	}
	return d
}

// Dominates reports whether a dominates b (reflexively: every block
// dominates itself). Blocks unreachable from entry dominate nothing and are
// dominated by nothing.
func (d *Dominance) Dominates(a, b *Block) bool {
	return d.dom[b][a]
}

// An Edge is one control-flow edge.
type Edge struct{ From, To *Block }

// BackEdges returns the edges u→v where v dominates u — the back edges of
// the graph's natural loops. Removing them yields the acyclic "one
// iteration" view that order-sensitive analyses (flagorder) reason over.
func BackEdges(g *Graph, d *Dominance) []Edge {
	var out []Edge
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			if d.Dominates(s, b) {
				out = append(out, Edge{From: b, To: s})
			}
		}
	}
	return out
}
