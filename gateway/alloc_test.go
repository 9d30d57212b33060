package gateway

import (
	"errors"
	"reflect"
	"testing"
	"unsafe"

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

// TestTicketAllocSize pins the ticket — the one object a served request
// allocates — at 112 B, exactly a Go size class: the next class down is
// 96 B, so the ticket holds only what outlives the issue (the functor waits
// in the run queue, not here), and a field added later is a step in
// serve-peak's bytes per request, not a rounding nobody sees. The
// per-request phase stamps planned for the ticket have room up to the
// 224 B it used to be. The future it embeds is 72 B.
func TestTicketAllocSize(t *testing.T) {
	if got := unsafe.Sizeof(Ticket[int64]{}); got != 112 {
		t.Errorf("Ticket[int64] is %d B, want 112", got)
	}
	if got := unsafe.Sizeof(core.Future[int64]{}); got != 72 {
		t.Errorf("core.Future[int64] is %d B, want 72", got)
	}
}

// checkQueueStorage walks every run queue's whole backing array, not just
// its live window: a live slot holds a ticket homed on that VE, queued once,
// with its functor, and every other slot is the zero entry. A ticket or a
// functor left past len (or before head) would keep a settled ticket, its
// future, the functor's decode func and any spilled argument buffer alive
// until a later push happened to overwrite it.
func checkQueueStorage(t *testing.T, g *Gateway[int64], when string) {
	t.Helper()
	queued := map[*Ticket[int64]]bool{}
	for vi := range g.queues {
		for _, q := range []*fifo[entry[int64]]{&g.queues[vi].lc, &g.queues[vi].bulk} {
			storage := q.items[:cap(q.items)]
			for i, e := range storage {
				live := i >= q.head && i < len(q.items)
				switch {
				case !live && !reflect.ValueOf(e).IsZero():
					t.Fatalf("%s: VE %d: storage slot %d (head %d, len %d, cap %d) is not the zero entry: ticket %v, functor %q",
						when, vi, i, q.head, len(q.items), len(storage), e.tk != nil, e.fn.Name())
				case !live: // vacated, and zero
				case e.tk == nil || e.fn.Name() == "":
					t.Fatalf("%s: VE %d: live queue slot %d lacks its ticket or functor", when, vi, i)
				case int(e.tk.vi) != vi:
					t.Fatalf("%s: VE %d queues a ticket homed on VE %d", when, vi, e.tk.vi)
				case queued[e.tk]:
					t.Fatalf("%s: a ticket is queued twice", when)
				default:
					queued[e.tk] = true
				}
			}
		}
	}
}

// TestStealLeavesNoTicketBehind: after a steal, and after a pop that
// compacts a queue, the backing arrays hold an entry only where a request is
// still queued (checkQueueStorage).
func TestStealLeavesNoTicketBehind(t *testing.T) {
	cfg := Config{
		Window: 1, MaxBatch: 1,
		Placement: sched.Affinity(func(int) core.NodeID { return 1 }),
	}
	onGateway(t, 2, cfg, func(p *machine.Proc, g *Gateway[int64]) {
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
			checkQueueStorage(t, g, "after a submit")
		}
		if g.Steals() == 0 {
			t.Fatal("the idle VE did not steal from the pinned queue")
		}
		for g.Queued() > 0 {
			p.Sleep(machine.Microsecond)
			g.Poll()
			checkQueueStorage(t, g, "after a poll")
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

	// One VE, one request in flight: a backlog of more than 64 bulk
	// requests drains one pop at a time, and the pop that takes the head
	// past 32 and past half the length compacts the queue in place.
	const backlog = 80
	onGateway(t, 1, Config{Window: 1, MaxBatch: 1}, func(p *machine.Proc, g *Gateway[int64]) {
		var tks []*Ticket[int64]
		for i := 0; i < backlog; i++ {
			tk, err := g.Submit(0, Batch, allocWork.Bind(int64(i), 0))
			if err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
			tks = append(tks, tk)
		}
		checkQueueStorage(t, g, "after the backlog")
		compactions := 0
		for g.Queued() > 0 {
			head := g.queues[0].bulk.head
			p.Sleep(machine.Microsecond)
			g.Poll()
			if g.queues[0].bulk.head < head {
				compactions++
			}
			checkQueueStorage(t, g, "after a poll")
		}
		if compactions == 0 {
			t.Fatal("the backlog drained without a compacting pop")
		}
		g.Drain()
		checkQueueStorage(t, g, "after the drain")
		for i, tk := range tks {
			if v, err := tk.Value(); !tk.Done() || err != nil || v != int64(i) {
				t.Fatalf("ticket %d: done=%v value=%d err=%v", i, tk.Done(), v, err)
			}
		}
	})
}
