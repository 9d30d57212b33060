package core

import (
	"errors"
	"fmt"
	"testing"

	"hamoffload/internal/simtime"
)

// Unit tests for the gray-failure resilience layer (resilience.go): hedged
// requests racing a slow primary, the shared retry/hedge token budget, and
// the seeded jitter streams. The resBackend stub below models a fail-slow
// application: every node answers, but each with its own configurable
// service delay on a hand-advanced simulated clock — exactly the "sick but
// alive" shape hedging exists for.

var resExecs int64

var fnResEcho = NewFunc1[int64]("test.resecho",
	func(_ *Ctx, v int64) (int64, error) { resExecs++; return v, nil })

// resCall is one in-flight request of the resBackend: the response was
// computed at Call time (so target-side dedup sees calls in wire order),
// but it is not observable before readyAt on the simulated clock.
type resCall struct {
	resp    []byte
	readyAt simtime.Time
}

// resBackend is a fail-slow Backend stub: node 0 is the initiator, nodes
// 1..len(targets) dispatch on their own runtime after a per-node delay.
// Sleep advances the simulated clock, which is how the resolveHedged
// poll loop makes time pass.
type resBackend struct {
	targets []*Runtime // index 0 unused (self)
	delay   []simtime.Duration
	now     simtime.Time
	calls   []int // Call count per node
	failAll error // when set, every Call fails with it
}

func newResBackend(delays ...simtime.Duration) *resBackend {
	b := &resBackend{
		targets: make([]*Runtime, len(delays)+1),
		delay:   append([]simtime.Duration{0}, delays...),
		calls:   make([]int, len(delays)+1),
	}
	for i := 1; i < len(b.targets); i++ {
		b.targets[i] = NewRuntime(&allocBackend{}, fmt.Sprintf("res-arch-%d", i))
	}
	return b
}

func (b *resBackend) Self() NodeID  { return 0 }
func (b *resBackend) NumNodes() int { return len(b.targets) }
func (b *resBackend) Descriptor(NodeID) NodeDescriptor {
	return NodeDescriptor{Name: "res-stub"}
}

func (b *resBackend) Call(target NodeID, msg []byte) (Handle, error) {
	b.calls[target]++
	if b.failAll != nil {
		return nil, b.failAll
	}
	resp := b.targets[target].Dispatch(msg)
	return &resCall{
		resp:    append([]byte(nil), resp...),
		readyAt: b.now.Add(b.delay[target]),
	}, nil
}

func (b *resBackend) Poll(h Handle) ([]byte, bool, error) {
	rc := h.(*resCall)
	if b.now < rc.readyAt {
		return nil, false, nil
	}
	return rc.resp, true, nil
}

func (b *resBackend) Wait(h Handle) ([]byte, error) {
	rc := h.(*resCall)
	if b.now < rc.readyAt {
		b.now = rc.readyAt
	}
	return rc.resp, nil
}

// The backend is its own (hand-advanced, simulated) clock.
func (b *resBackend) Clock() Clock                     { return b }
func (b *resBackend) Sleep(d simtime.Duration)         { b.now = b.now.Add(d) }
func (b *resBackend) Now() simtime.Time                { return b.now }
func (b *resBackend) Simulated() bool                  { return true }
func (b *resBackend) MaxMessageLen() int               { return 1 << 20 }
func (b *resBackend) RecoverNode(NodeID) error         { return ErrUnsupported }
func (b *resBackend) Put(NodeID, []byte, uint64) error { return nil }
func (b *resBackend) Get(NodeID, uint64, []byte) error { return nil }
func (b *resBackend) Serve(Server) error               { return nil }
func (b *resBackend) Memory() LocalMemory              { return nil }
func (b *resBackend) ChargeVector(int64, int64, int)   {}
func (b *resBackend) Close() error                     { return nil }

func resRuntime(b *resBackend) *Runtime {
	rt := NewRuntime(b, "res-arch-host")
	rt.SetFaultTolerance(FaultTolerance{MaxRetries: 3})
	return rt
}

func TestHedgeWinsAgainstSlowPrimary(t *testing.T) {
	b := newResBackend(500*simtime.Microsecond, 2*simtime.Microsecond)
	rt := resRuntime(b)
	rt.SetHedging(HedgePolicy{Delay: 10 * simtime.Microsecond, Targets: []NodeID{2}})

	v, err := Sync(rt, 1, fnResEcho.Bind(7))
	if err != nil || v != 7 {
		t.Fatalf("Sync = %d, %v; want 7, nil", v, err)
	}
	if b.calls[1] != 1 || b.calls[2] != 1 {
		t.Fatalf("calls = %v; want one primary, one hedge", b.calls)
	}
	if rt.Hedges() != 1 || rt.HedgeWins() != 1 {
		t.Fatalf("hedges = %d wins = %d; want 1, 1", rt.Hedges(), rt.HedgeWins())
	}
	// The race settled at hedge-delay + healthy service time, far below the
	// sick node's 500 µs — the whole point of hedging.
	if b.now.Sub(0) >= 500*simtime.Microsecond {
		t.Fatalf("settled at %v; hedge should have beaten the slow primary", b.now)
	}
	if b.now.Sub(0) < 12*simtime.Microsecond {
		t.Fatalf("settled at %v, before delay + hedge service time", b.now)
	}
}

func TestPrimaryWinsWhenHealthy(t *testing.T) {
	b := newResBackend(2*simtime.Microsecond, 2*simtime.Microsecond)
	rt := resRuntime(b)
	rt.SetHedging(HedgePolicy{Delay: 50 * simtime.Microsecond, Targets: []NodeID{2}})

	v, err := Sync(rt, 1, fnResEcho.Bind(9))
	if err != nil || v != 9 {
		t.Fatalf("Sync = %d, %v", v, err)
	}
	if rt.Hedges() != 0 || b.calls[2] != 0 {
		t.Fatalf("healthy primary still hedged: hedges=%d calls=%v", rt.Hedges(), b.calls)
	}
}

func TestSameNodeHedgeDedups(t *testing.T) {
	b := newResBackend(100 * simtime.Microsecond)
	rt := resRuntime(b)
	// No alternative targets: the hedge goes back to node 1, where the
	// dedup window answers it without re-executing the handler.
	rt.SetHedging(HedgePolicy{Delay: 5 * simtime.Microsecond})

	before := resExecs
	v, err := Sync(rt, 1, fnResEcho.Bind(3))
	if err != nil || v != 3 {
		t.Fatalf("Sync = %d, %v", v, err)
	}
	if b.calls[1] != 2 {
		t.Fatalf("calls to node 1 = %d; want primary + same-node hedge", b.calls[1])
	}
	if got := resExecs - before; got != 1 {
		t.Fatalf("handler executed %d times; dedup must keep it at exactly once", got)
	}
	if rt.Hedges() != 1 {
		t.Fatalf("hedges = %d, want 1", rt.Hedges())
	}
}

func TestHedgeSkipsUnhealthyTargets(t *testing.T) {
	b := newResBackend(100*simtime.Microsecond, simtime.Microsecond, simtime.Microsecond)
	rt := resRuntime(b)
	rt.SetHedging(HedgePolicy{
		Delay:   5 * simtime.Microsecond,
		Targets: []NodeID{2, 3},
		Healthy: func(n NodeID) bool { return n == 3 },
	})
	if _, err := Sync(rt, 1, fnResEcho.Bind(1)); err != nil {
		t.Fatal(err)
	}
	if b.calls[2] != 0 || b.calls[3] != 1 {
		t.Fatalf("calls = %v; hedge must skip the unhealthy candidate", b.calls)
	}
}

func TestRetryBudgetDeniesHedges(t *testing.T) {
	b := newResBackend(40*simtime.Microsecond, simtime.Microsecond)
	rt := resRuntime(b)
	rt.SetHedging(HedgePolicy{Delay: 5 * simtime.Microsecond, Targets: []NodeID{2}})
	rt.SetRetryBudget(RetryBudget{Tokens: 1}) // no refill: one hedge, ever

	for i := 0; i < 3; i++ {
		if v, err := Sync(rt, 1, fnResEcho.Bind(int64(i))); err != nil || v != int64(i) {
			t.Fatalf("offload %d = %d, %v", i, v, err)
		}
	}
	if rt.Hedges() != 1 {
		t.Fatalf("hedges = %d; the single token allows exactly one", rt.Hedges())
	}
	if rt.BudgetDenied() != 2 {
		t.Fatalf("budgetDenied = %d, want 2", rt.BudgetDenied())
	}
	if b.calls[2] != 1 {
		t.Fatalf("calls = %v; denied hedges must not reach the wire", b.calls)
	}
}

func TestRetryBudgetRefillsOnSimClock(t *testing.T) {
	b := newResBackend(simtime.Microsecond)
	rt := resRuntime(b)
	rt.SetRetryBudget(RetryBudget{Tokens: 2, Refill: 10 * simtime.Microsecond})

	if !rt.spendToken(1) || !rt.spendToken(1) {
		t.Fatal("fresh bucket must hold its full capacity")
	}
	if rt.spendToken(1) {
		t.Fatal("drained bucket must deny")
	}
	b.now = b.now.Add(10 * simtime.Microsecond)
	if !rt.spendToken(1) {
		t.Fatal("one refill interval must restore one token")
	}
	if rt.spendToken(1) {
		t.Fatal("only one token accrues per interval")
	}
	b.now = b.now.Add(100 * simtime.Microsecond)
	if !rt.spendToken(1) || !rt.spendToken(1) {
		t.Fatal("long idle must refill to capacity")
	}
	if rt.spendToken(1) {
		t.Fatal("refill must cap at Tokens")
	}
	if rt.BudgetDenied() != 3 {
		t.Fatalf("budgetDenied = %d, want 3", rt.BudgetDenied())
	}
}

// transientErr satisfies IsTransient for the budget-caps-retries test.
type transientErr struct{}

func (transientErr) Error() string   { return "transient stub failure" }
func (transientErr) Transient() bool { return true }

func TestRetryBudgetCapsRetries(t *testing.T) {
	b := newResBackend(simtime.Microsecond)
	b.failAll = transientErr{}
	rt := resRuntime(b)
	rt.SetFaultTolerance(FaultTolerance{MaxRetries: 10})
	rt.SetRetryBudget(RetryBudget{Tokens: 2})

	_, err := Sync(rt, 1, fnResEcho.Bind(1))
	if err == nil {
		t.Fatal("offload against an always-failing backend must fail")
	}
	var te transientErr
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want the stub's transient failure", err)
	}
	// MaxRetries would allow 10 retransmissions; the budget stops at 2.
	if rt.Retries() != 2 {
		t.Fatalf("retries = %d; budget must cap the storm at 2", rt.Retries())
	}
	if rt.BudgetDenied() != 1 {
		t.Fatalf("budgetDenied = %d, want 1", rt.BudgetDenied())
	}
}

func TestHedgeRequiresFaultTolerance(t *testing.T) {
	b := newResBackend(5 * simtime.Microsecond)
	rt := NewRuntime(b, "res-arch-noft")
	rt.SetHedging(HedgePolicy{Delay: simtime.Microsecond, Targets: []NodeID{1}})

	if v, err := Sync(rt, 1, fnResEcho.Bind(4)); err != nil || v != 4 {
		t.Fatalf("Sync = %d, %v", v, err)
	}
	if rt.Hedges() != 0 {
		t.Fatal("hedging without an FT envelope must not engage")
	}
}

func TestHedgeDelayJitterDeterministic(t *testing.T) {
	b := newResBackend(simtime.Microsecond)
	rt := resRuntime(b)
	base := 10 * simtime.Microsecond

	rt.SetHedging(HedgePolicy{Delay: base})
	if d := rt.hedgeDelay(&pending{seq: 1}); d != base {
		t.Fatalf("unseeded delay = %v, want exactly %v", d, base)
	}
	rt.SetHedging(HedgePolicy{Delay: base, Seed: 42})
	d1 := rt.hedgeDelay(&pending{seq: 1})
	d2 := rt.hedgeDelay(&pending{seq: 1})
	d3 := rt.hedgeDelay(&pending{seq: 2})
	if d1 != d2 {
		t.Fatalf("same seed+seq must jitter identically: %v vs %v", d1, d2)
	}
	if d1 < base || d1 >= base+base/4 {
		t.Fatalf("jittered delay %v outside [%v, %v)", d1, base, base+base/4)
	}
	if d1 == d3 && rt.hedgeDelay(&pending{seq: 3}) == d1 {
		t.Fatal("distinct sequence numbers should spread the jitter")
	}
}

// TestDispatchZeroAllocResilienceArmed pins the un-armed hot path with the
// resilience knobs *configured*: hedging and budgets live entirely in the
// initiator's blocking resolve, so a target's Dispatch — and
// an initiator that never trips them — must stay at zero allocations per
// message exactly like the bare runtime.
func TestDispatchZeroAllocResilienceArmed(t *testing.T) {
	bk := &allocBackend{}
	rt := NewRuntime(bk, "alloc-arch-resilience")
	bk.target = rt
	rt.SetHedging(HedgePolicy{Delay: simtime.Microsecond, Targets: []NodeID{1}, Seed: 7})
	rt.SetRetryBudget(RetryBudget{Tokens: 4, Refill: simtime.Microsecond})

	msg := requestWire(t, rt, fnAllocInc.Bind(41))
	allocs := testing.AllocsPerRun(200, func() {
		rt.Dispatch(msg)
	})
	if allocs != 0 {
		t.Errorf("Dispatch with resilience knobs configured allocates %.1f times per message; the un-armed path is contractually zero-alloc (see docs/LINTING.md)", allocs)
	}
}
