package core

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"hamoffload/internal/trace"
)

// orderHook records its name when its future settles.
type orderHook struct {
	name string
	log  *[]string
}

func (h *orderHook) FutureSettled() { *h.log = append(*h.log, h.name) }

// TestSettleHooksRunOnceInOrder: with a tracer attached the offload span's
// closer runs first, then the hooks in registration order whichever form
// they took, each exactly once; a hook registered on a settled future runs
// at once.
func TestSettleHooksRunOnceInOrder(t *testing.T) {
	rt, tr := scriptRuntime(newScriptBackend(), false)
	var log []string
	f := Async(rt, 2, fnLifeEcho.Bind(7))
	f.OnSettle(func() {
		log = append(log, fmt.Sprintf("spans %d", countSpans(tr, trace.PhaseOffload, "")))
	})
	f.OnSettleHook(&orderHook{"hook", &log})
	f.OnSettle(func() { log = append(log, "func") })
	f.OnSettleHook(&orderHook{"hook2", &log})
	if len(log) != 0 {
		t.Fatalf("hooks ran before the future settled: %q", log)
	}
	if v, err := f.Get(); v != 7 || err != nil {
		t.Fatalf("Get = %d, %v; want 7", v, err)
	}
	f.fail(ErrNodeFailed) // settling twice is a no-op
	f.OnSettle(func() { log = append(log, "late") })
	want := []string{"spans 1", "hook", "func", "hook2", "late"}
	if !slices.Equal(log, want) {
		t.Fatalf("settle order %q, want %q", log, want)
	}
	if n := freeHooks(t, rt); n != 4 {
		t.Errorf("%d chain nodes on the free list, want 4: one per hook after the closer", n)
	}
}

// freeHooks walks rt's free list of chain nodes and returns their number.
// Each must be cleared: a node that kept its hooks would keep what they
// point to (a ticket, a MapFutures slab) alive until it is reused.
func freeHooks(t *testing.T, rt *Runtime) int {
	t.Helper()
	n := 0
	for c := rt.freeHook; c != nil; c = c.next {
		if c.first != nil || c.then != nil || c.rt != rt {
			t.Fatalf("free chain node %d holds hooks (%v, %v) or another runtime", n, c.first, c.then)
		}
		n++
	}
	return n
}

// seqHook is one registration of TestSettleHookChains: it logs its number
// on its future's record and, when nest is set, registers one more hook on
// another future from inside its own run.
type seqHook struct {
	w    *chainWorld
	fut  int
	seq  int
	nest bool
}

func (h *seqHook) FutureSettled() {
	w := h.w
	if !w.futs[h.fut].Done() {
		w.t.Fatalf("future %d: hook %d ran before its future settled", h.fut, h.seq)
	}
	w.ran[h.fut] = append(w.ran[h.fut], h.seq)
	if h.nest {
		w.register(w.rng.IntN(len(w.futs)), false)
	}
}

// chainWorld is the state of TestSettleHookChains: registered and run hook
// numbers per future.
type chainWorld struct {
	t        *testing.T
	rng      *rand.Rand
	futs     []*Future[int64]
	reg, ran [][]int
}

// register adds one hook to future i, numbered in registration order.
func (w *chainWorld) register(i int, nest bool) {
	h := &seqHook{w: w, fut: i, seq: len(w.reg[i]), nest: nest}
	w.reg[i] = append(w.reg[i], h.seq)
	w.futs[i].OnSettleHook(h)
}

// TestSettleHookChains: 1 000 futures on one runtime get 0–4 hooks each,
// some registered after they settled and some from inside another hook's
// run, and settle or fail in shuffled order. Each hook runs exactly once,
// in registration order, and only when its own future settles; afterwards
// every chain node is back on the runtime's free list, cleared. A node put
// back before its second hook ran is handed to a nested registration and
// runs that hook in place of its own; one put back uncleared fails the walk.
func TestSettleHookChains(t *testing.T) {
	const n, seed = 1000, 33
	rng := rand.New(rand.NewPCG(seed, 0))
	fails := make([]bool, n)
	script := make([]step, n)
	for i := range fails {
		if fails[i] = rng.IntN(4) == 0; fails[i] {
			script[i].waitErr = fmt.Errorf("lost response %d: %w", i, ErrNodeFailed)
		}
	}
	rt := NewRuntime(newScriptBackend(script...), "chain-arch-host")
	w := &chainWorld{t: t, rng: rng, futs: make([]*Future[int64], n), reg: make([][]int, n), ran: make([][]int, n)}
	for i := range w.futs {
		w.futs[i] = Async(rt, 1, fnLifeEcho.Bind(int64(i)))
	}
	for i := range w.futs {
		for range rng.IntN(5) {
			w.register(i, rng.IntN(8) == 0)
		}
	}
	for _, i := range rng.Perm(n) {
		v, err := w.futs[i].Get()
		if fails[i] != (err != nil) || (err == nil && v != int64(i)) {
			t.Fatalf("future %d = %d, %v; want failed %v", i, v, err, fails[i])
		}
		if rng.IntN(3) == 0 {
			w.register(i, false) // on a settled future: runs at once
		}
		if !slices.Equal(w.ran[i], w.reg[i]) {
			t.Fatalf("future %d ran hooks %v, registered %v", i, w.ran[i], w.reg[i])
		}
		for j, f := range w.futs {
			if !f.Done() && len(w.ran[j]) != 0 {
				t.Fatalf("settling future %d ran hooks %v of pending future %d", i, w.ran[j], j)
			}
		}
	}
	for i := range w.futs {
		if !slices.Equal(w.ran[i], w.reg[i]) {
			t.Fatalf("future %d ran hooks %v, registered %v", i, w.ran[i], w.reg[i])
		}
	}
	if freeHooks(t, rt) == 0 {
		t.Fatal("no future chained a hook")
	}
}
