// Package hotallocfix exercises every hotalloc escape rule: allocation
// sites reachable from the //hot:path root must be reported with their call
// chain, while armed-observability branches, error branches and //hot:cold
// functions stay silent.
package hotallocfix

import (
	"errors"
	"fmt"

	"hamoffload/internal/trace"
)

type payload struct{ n int }

type sink interface{ accept(v any) }

type sinkImpl struct{}

// accept is reached through the interface call in box via CHA fan-out.
func (sinkImpl) accept(v any) {
	_ = errors.New("impl") // want `errors\.New allocates on a hot path \(hotallocfix\.root → hotallocfix\.box → \(hotallocfix\.sinkImpl\)\.accept\)`
}

//hot:path
func root(tr *trace.Tracer, s []byte) {
	p := &payload{n: 1} // want `&hotallocfix\.payload{} escapes to the heap on a hot path \(hotallocfix\.root\)`
	_ = p
	helper(len(s))
	fastPath(s)
	box(nil, len(s))
	_ = retBox(len(s))
	_ = closures(len(s))
	_ = concat("x")
	_ = fmtErr(len(s))
	errGuard(nil, len(s))
	armedArgs(tr, "x")
	_ = news()
	lits()
	_ = conv(len(s))
	_ = gen(len(s))
	coldPath(len(s))
	invariant(len(s) >= 0, "root")

	if tr != nil {
		_ = fmt.Sprintf("armed %d", len(s)) // armed branch: pruned, no want
	}
	if tr == nil {
		return
	}
	_ = fmt.Sprintf("armed tail %d", len(s)) // after disarmed return: pruned, no want
}

// helper pins the make rules and the root → helper chain rendering.
func helper(n int) {
	buf := make([]byte, n) // want `make\(\[\]byte\) with non-constant size allocates on a hot path \(hotallocfix\.root → hotallocfix\.helper\)`
	_ = buf
	fixed := make([]byte, 8) // want `make\(\[\]byte\) allocates`
	_ = fixed
	m := make(map[int]int) // want `make\(map\[int\]int\) allocates`
	for k := range m {     // want `map iteration`
		_ = k
	}
}

func fastPath(s []byte) {
	grown := append(s, 0) // want `append may grow its backing array`
	_ = grown
	reused := append(s[:0], 1) // explicit reuse slice: no want
	_ = reused
	str := string(s) // want `string ↔ \[\]byte conversion copies and allocates`
	b := []byte(str) // want `string ↔ \[\]byte conversion copies and allocates`
	_ = b
}

func box(k sink, v int) {
	k.accept(v)  // want `argument boxes int into interface any`
	k.accept(&v) // pointer-shaped: no want
}

type myErr struct{ code int }

func (myErr) Error() string { return "" }

func retBox(n int) error {
	if n > 0 {
		return myErr{code: n} // want `return value boxes into interface error`
	}
	return nil // no want: nil never boxes
}

func closures(n int) func() int {
	f := func() int { return n }  // want `closure captures n and escapes`
	g := func() int { return 42 } // no captures: no want
	_ = g
	return f
}

func concat(name string) string {
	s := "prefix " + name // want `string concatenation allocates`
	const c = "a" + "b"   // constant-folded: no want
	_ = c
	return s
}

func fmtErr(n int) error {
	err := errors.New("boom")  // want `errors\.New allocates`
	_ = fmt.Sprintf("x %d", n) // want `fmt\.Sprintf formats and allocates`
	return err
}

func errGuard(err error, n int) {
	if err != nil {
		_ = fmt.Sprintf("failed %d", n) // error branch: pruned, no want
	} else {
		_ = errors.New("else is live") // want `errors\.New allocates`
	}
}

// armedArgs calls a method on an armed handle: the callee is not traversed
// (it runs only when armed and nil-checks its receiver), but its arguments
// are still on the caller's hot path.
func armedArgs(tr *trace.Tracer, name string) {
	tr.Instant(nil, "cat", "evt "+name) // want `string concatenation allocates`
}

func news() *payload {
	return new(payload) // want `new\(hotallocfix\.payload\) allocates`
}

func lits() {
	s := []int{1, 2, 3}         // want `slice literal \[\]int{\.\.\.} allocates its backing array`
	m := map[string]int{"a": 1} // want `map literal map\[string\]int{\.\.\.} allocates`
	_, _ = s, m
}

func conv(n int) any {
	return any(n) // want `conversion boxes int into interface any`
}

func gen[T any](v T) *T {
	p := new(T) // want `new\(T\) allocates`
	*p = v
	return p
}

// coldPath is asserted off the hot path; nothing inside is reported.
//
//hot:cold
func coldPath(n int) {
	_ = fmt.Sprintf("cold %d", n) // no want: //hot:cold
}

// invariant panics with a rendered message: the path ends there, so the
// argument is not on it.
func invariant(ok bool, who string) {
	if !ok {
		panic("invariant broken in " + who) // no want: panic argument
	}
}

// unreachable is never called from a root: nothing inside is reported.
func unreachable() {
	_ = errors.New("dead") // no want: not reachable from a hot root
}
