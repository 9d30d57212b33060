package gateway

import (
	"errors"
	"testing"

	"hamoffload/internal/core"
	"hamoffload/machine"
	"hamoffload/sched"
)

// This file pins what the request path allocates and what a steal leaves
// behind. It sits inside the package because both questions are about
// storage the API does not show: the queues' backing arrays and the heap.

var allocWork = core.NewFunc2[int64]("gateway.alloc_work",
	func(c *core.Ctx, a, b int64) (int64, error) {
		c.ChargeVector(100_000, 12_500, 8)
		return a + b, nil
	})

// onGateway runs fn on a fresh simulated machine with a DMA-connected
// runtime and a gateway over its VE nodes.
func onGateway(t *testing.T, ves int, cfg Config, fn func(p *machine.Proc, g *Gateway[int64])) {
	t.Helper()
	m, err := machine.New(machine.Config{VEs: ves})
	if err != nil {
		t.Fatalf("machine.New: %v", err)
	}
	err = m.RunMain(func(p *machine.Proc) error {
		rt, cerr := machine.ConnectDMA(p, m, machine.ProtocolOptions{})
		if cerr != nil {
			return cerr
		}
		defer func() { _ = rt.Finalize() }()
		nodes := make([]core.NodeID, ves)
		for i := range nodes {
			nodes[i] = core.NodeID(i + 1)
		}
		g, gerr := New[int64](rt, nodes, cfg)
		if gerr != nil {
			return gerr
		}
		fn(p, g)
		return nil
	})
	if err != nil {
		t.Fatalf("RunMain: %v", err)
	}
}

// TestRejectedSubmitZeroAlloc: a refusal is a third of the offered load at
// the peaks of the serving workload. With no tracer armed it builds no
// label and no error — the wrapped ErrQuota / ErrOverloaded values are made
// per tenant and per class in New.
func TestRejectedSubmitZeroAlloc(t *testing.T) {
	cfg := Config{
		MaxQueued: 10, Window: 1, MaxBatch: 1,
		Tenants: []TenantConfig{{Name: "metered", Burst: 1, Refill: machine.Second}, {Name: "free"}},
	}
	onGateway(t, 1, cfg, func(p *machine.Proc, g *Gateway[int64]) {
		fn := allocWork.Bind(1, 2)
		// Spend tenant 0's only token, and fill best-effort's share of one
		// queued request behind the one in flight.
		for _, tenant := range []int{0, 1} {
			if _, err := g.Submit(tenant, BestEffort, fn); err != nil {
				t.Fatalf("set-up submit: %v", err)
			}
		}
		var err error
		if n := testing.AllocsPerRun(100, func() { _, err = g.Submit(0, BestEffort, fn) }); n != 0 {
			t.Errorf("a quota rejection allocates %.1f objects, want 0", n)
		}
		if !errors.Is(err, ErrQuota) || err.Error() != "gateway: tenant quota exhausted: tenant 0" {
			t.Fatalf("quota rejection = %v", err)
		}
		if n := testing.AllocsPerRun(100, func() { _, err = g.Submit(1, BestEffort, fn) }); n != 0 {
			t.Errorf("an overload rejection allocates %.1f objects, want 0", n)
		}
		if !errors.Is(err, ErrOverloaded) || err.Error() != "gateway: class queue share full: class best-effort" {
			t.Fatalf("overload rejection = %v", err)
		}
		g.Drain()
	})
}

// TestServedRequestAllocs pins one request end to end — Bind, Submit, the
// dmab round trip, Drain — on a 1-VE machine at the one object the API hands
// out per request: the ticket. Bind encodes the arguments into the functor
// the ticket holds, the future is issued in place inside the ticket, the
// wire is encoded in the pooled call that carries it, and the ring handle
// and its result buffer recycle once the result is handed out.
func TestServedRequestAllocs(t *testing.T) {
	const want = 1
	onGateway(t, 1, Config{}, func(p *machine.Proc, g *Gateway[int64]) {
		var tk *Ticket[int64]
		var err error
		serve := func() {
			tk, err = g.Submit(0, LatencyCritical, allocWork.Bind(40, 2))
			g.Drain()
		}
		serve() // warm the queues, the SLO window and the ring
		n := testing.AllocsPerRun(100, serve)
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		if v, verr := tk.Value(); v != 42 || verr != nil {
			t.Fatalf("result = %d, %v; want 42", v, verr)
		}
		if n != want {
			t.Errorf("a served request allocates %.1f objects, want %d", n, want)
		}
	})
}

// TestStealLeavesNoTicketBehind: after a steal, the victim's backing arrays
// hold a ticket only where the victim still queues it. A pointer left past
// len (or before head) would keep a settled ticket and its future alive
// until a later push happened to overwrite it.
func TestStealLeavesNoTicketBehind(t *testing.T) {
	cfg := Config{
		Window: 1, MaxBatch: 1,
		Placement: sched.Affinity(func(int) core.NodeID { return 1 }),
	}
	onGateway(t, 2, cfg, func(p *machine.Proc, g *Gateway[int64]) {
		// check walks every queue's whole backing array, not just its live
		// window.
		check := func(when string) {
			t.Helper()
			queued := map[*Ticket[int64]]bool{}
			for vi := range g.queues {
				for _, q := range []*fifo[int64]{&g.queues[vi].lc, &g.queues[vi].bulk} {
					storage := q.items[:cap(q.items)]
					for i, tk := range storage {
						live := i >= q.head && i < len(q.items)
						switch {
						case live && tk == nil:
							t.Fatalf("%s: VE %d: live queue slot %d is empty", when, vi, i)
						case !live && tk != nil:
							t.Fatalf("%s: VE %d: storage slot %d (head %d, len %d, cap %d) still holds a ticket",
								when, vi, i, q.head, len(q.items), len(storage))
						case live && tk.vi != vi:
							t.Fatalf("%s: VE %d queues a ticket homed on VE %d", when, vi, tk.vi)
						case live && queued[tk]:
							t.Fatalf("%s: a ticket is queued twice", when)
						case live:
							queued[tk] = true
						}
					}
				}
			}
		}
		var tks []*Ticket[int64]
		for i := 0; i < 24; i++ {
			class := LatencyCritical
			if i%3 == 0 {
				class = Batch
			}
			tk, err := g.Submit(0, class, allocWork.Bind(int64(i), 0))
			if err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
			tks = append(tks, tk)
			check("after a submit")
		}
		if g.Steals() == 0 {
			t.Fatal("the idle VE did not steal from the pinned queue")
		}
		for g.Queued() > 0 {
			p.Sleep(machine.Microsecond)
			g.Poll()
			check("after a poll")
		}
		g.Drain()
		if g.Steals() < 3 {
			t.Fatalf("only %d steals; the scenario should steal repeatedly", g.Steals())
		}
		for i, tk := range tks {
			if v, err := tk.Value(); !tk.Done() || err != nil || v != int64(i) {
				t.Fatalf("ticket %d: done=%v value=%d err=%v", i, tk.Done(), v, err)
			}
		}
	})
}
