package gateway

import (
	"errors"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"
	"weak"

	"hamoffload/internal/core"
	"hamoffload/internal/simtime"
	"hamoffload/machine"
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
	onMachineGateway(t, ves, cfg, func(p *machine.Proc, _ *machine.Machine, g *Gateway[int64]) { fn(p, g) })
}

// onMachineGateway is onGateway for a test that also needs the machine.
func onMachineGateway(t *testing.T, ves int, cfg Config, fn func(p *machine.Proc, m *machine.Machine, g *Gateway[int64])) {
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
		fn(p, m, g)
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
// dmab round trip, Drain — on a 1-VE machine at no object per request. Bind
// encodes the arguments into the functor, the ticket is the next slot of
// the gateway's slab, the future is issued in place inside the ticket, the
// wire is encoded in the pooled call that carries it, and the ring handle
// and its result buffer recycle once the result is handed out. The one
// slab refill the runs may cross is under one object per run.
func TestServedRequestAllocs(t *testing.T) {
	const want = 0
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

// TestTicketAllocSize pins the ticket at 48 B — tenant, class and the
// accounted flag in one word, the one time word (arrival, then latency) and
// the 32-B future — and the slab it is carved from: 682 tickets and the 8-B
// malloc header take 32 744 B of the 32 KiB size class, 24 B short of
// filling it. A field added to the ticket costs its exact bytes per request
// (the slab stays one size class and holds fewer tickets), not a rounding
// to the next class.
func TestTicketAllocSize(t *testing.T) {
	size := unsafe.Sizeof(Ticket[int64]{})
	if size != 48 {
		t.Errorf("Ticket[int64] is %d B, want 48", size)
	}
	if n := slabLen[int64](); n != 682 || uintptr(n)*size+slabHeader != 32744 {
		t.Errorf("a slab holds %d tickets, %d B with its header; want 682 in 32744 B",
			n, uintptr(n)*size+slabHeader)
	}
}

// TestSlabRefillAllocs pins the one allocation tickets cost: a slab refill
// is one malloc of exactly slabBytes, and N served requests that start on
// a slab boundary cost ceil(N / slabLen) mallocs, whatever the mix of
// classes. The gateway is warmed first: every pooled call and ring handle
// carries a full frame (warmFrames), the SLO window lists coarsen, so
// windows come from the free list, and the run queues grow past the longest
// burst counted.
func TestSlabRefillAllocs(t *testing.T) {
	onGateway(t, 1, Config{}, func(p *machine.Proc, g *Gateway[int64]) {
		n := slabLen[int64]()
		warmFrames(t, g)
		serve := func(k int) {
			for i := 0; i < k; i++ {
				class := LatencyCritical
				if i%3 == 0 {
					class = Batch
				}
				if _, err := g.Submit(0, class, allocWork.Bind(int64(i), 0)); err != nil {
					t.Fatalf("submit %d: %v", i, err)
				}
			}
			g.Drain()
		}
		for _, c := range []Class{LatencyCritical, Batch} {
			for g.classes[c].slo.Report().Window == g.cfg.SLOWindow {
				serve(3*n + 1)
			}
		}
		// Once more with every list warm, in a burst a slab longer than the
		// longest count below: a run queue's FIFO doubles when a burst
		// outgrows it, and no count below may be the first to reach a size.
		serve(4*n + 1)

		// MemStats counts the runtime's own mallocs too. Bind takes its
		// argument encoder from a sync.Pool, which a collection empties and
		// which keeps an encoder per P; restarting the world after
		// ReadMemStats may start an OS thread for an idle P; and the
		// background scavenger, when it has work, arms a timer on the P it
		// runs on. Each allocates. So count on one P with the collector off,
		// after one last collection that returns the freed memory to the OS
		// at once: with the collector off the scavenger gets no more work.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		debug.FreeOSMemory()

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g.refill()
		runtime.ReadMemStats(&after)
		if bytes, mallocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs; bytes != slabBytes || mallocs != 1 {
			t.Errorf("a slab refill allocates %d B in %d mallocs, want %d B in 1", bytes, mallocs, slabBytes)
		}

		if raceEnabled {
			t.Skip("the race detector allocates on coroutine switches; the per-request counts need a plain build")
		}
		for _, k := range []int{1, n - 1, n, n + 1, 3*n + 2} {
			serve(len(g.slab)) // finish the current slab
			runtime.ReadMemStats(&before)
			serve(k)
			runtime.ReadMemStats(&after)
			want := uint64((k + n - 1) / n)
			if got := after.Mallocs - before.Mallocs; got != want {
				t.Errorf("%d served requests from a slab boundary cost %d mallocs, want ceil(%d/%d) = %d",
					k, got, k, n, want)
			}
		}
	})
}

// warmFrames has every pooled call and ring handle of g's runtime carry a
// full batch frame. The mixed traffic of a count leaves calls that only
// ever carried one latency-critical request deep in the runtime's call
// pool; the first frame such a call carries grows its sink and entry
// arrays (Batcher.add), its split scratch (openBatchInto) and its response
// copy (deliver), and the ring handle that carries it grows its result
// buffer. Opening twice as many full frames at once as the window ever
// keeps messages in flight takes every pooled call and handle.
func warmFrames(t *testing.T, g *Gateway[int64]) {
	t.Helper()
	b := core.NewBatcher(g.rt)
	node := g.nodes[0]
	var futs []*core.Future[int64]
	for range 2 * g.cfg.Window {
		for range g.cfg.MaxBatch {
			futs = append(futs, core.BatchAdd(b, node, allocWork.Bind(1, 1)))
		}
		b.Flush(node)
	}
	for _, f := range futs {
		if v, err := f.Get(); v != 2 || err != nil {
			t.Fatalf("warm-up frame entry = %d, %v; want 2", v, err)
		}
	}
}

// TestSlabTicketsStayTheCallers: a ticket slot is never reused. Three slabs'
// worth of tickets, all held, are distinct, and each keeps its value and
// latency while two more slabs' worth of requests are submitted and
// drained behind them.
func TestSlabTicketsStayTheCallers(t *testing.T) {
	onGateway(t, 2, Config{}, func(p *machine.Proc, g *Gateway[int64]) {
		n := slabLen[int64]()
		submit := func(k, base int) []*Ticket[int64] {
			tks := make([]*Ticket[int64], k)
			for i := range tks {
				class := LatencyCritical
				if i%3 == 0 {
					class = Batch
				}
				tk, err := g.Submit(0, class, allocWork.Bind(int64(base+i), 0))
				if err != nil {
					t.Fatalf("submit %d: %v", base+i, err)
				}
				tks[i] = tk
			}
			return tks
		}
		held := submit(3*n, 0)
		g.Drain()
		lats := make([]simtime.Duration, len(held))
		seen := map[*Ticket[int64]]bool{}
		for i, tk := range held {
			if seen[tk] {
				t.Fatalf("ticket %d is a pointer handed out before", i)
			}
			seen[tk] = true
			lat, ok := tk.Latency()
			if !ok || lat <= 0 {
				t.Fatalf("ticket %d: latency %v, settled %v", i, lat, ok)
			}
			lats[i] = lat
		}
		later := submit(2*n, len(held))
		g.Drain()
		for i, tk := range later {
			if seen[tk] {
				t.Fatalf("later ticket %d reuses a held ticket's slot", i)
			}
			seen[tk] = true
		}
		for i, tk := range append(held, later...) {
			if v, err := tk.Value(); !tk.Done() || err != nil || v != int64(i) {
				t.Fatalf("ticket %d: done=%v value=%d err=%v", i, tk.Done(), v, err)
			}
			if lat, ok := tk.Latency(); i < len(held) && (!ok || lat != lats[i]) {
				t.Fatalf("held ticket %d: latency %v (settled %v), was %v", i, lat, ok, lats[i])
			}
		}
	})
}

// TestSlabFreedWithItsTickets: a slab whose tickets were all dropped is
// collected, and one held ticket keeps its whole slab alive. The gateway
// keeps no reference to a settled ticket: its run-queue slot, in-flight
// FIFO slot, call sink and settle hook are all cleared.
func TestSlabFreedWithItsTickets(t *testing.T) {
	onGateway(t, 1, Config{}, func(p *machine.Proc, g *Gateway[int64]) {
		n := slabLen[int64]()
		// fill serves a whole slab from its first ticket on and returns a
		// weak pointer to the slab and the ticket at index keep (none < 0).
		fill := func(keep int) (weak.Pointer[Ticket[int64]], *Ticket[int64]) {
			for len(g.slab) > 0 { // finish the current slab
				if _, err := g.Submit(0, Batch, allocWork.Bind(0, 0)); err != nil {
					t.Fatalf("submit: %v", err)
				}
			}
			var first, kept *Ticket[int64]
			for i := 0; i < n; i++ {
				tk, err := g.Submit(0, Batch, allocWork.Bind(int64(i), 0))
				if err != nil {
					t.Fatalf("submit %d: %v", i, err)
				}
				if i == 0 {
					first = tk
				}
				if i == keep {
					kept = tk
				}
			}
			g.Drain()
			return weak.Make(first), kept
		}
		dropped, _ := fill(-1)
		kept, held := fill(n / 2)
		fill(-1) // the gateway moves on to a third slab
		runtime.GC()
		if dropped.Value() != nil {
			t.Error("a slab whose tickets were all dropped is still reachable after a GC")
		}
		if kept.Value() == nil {
			t.Fatal("the slab of a held ticket was collected")
		}
		if v, err := held.Value(); err != nil || v != int64(n/2) {
			t.Errorf("held ticket = %d, %v; want %d", v, err, n/2)
		}
		runtime.KeepAlive(held)
	})
}

// checkQueueStorage walks every run queue's whole backing array, not just
// its live window: a live slot holds an unsettled ticket of the FIFO's
// class, queued once and on no VE's in-flight FIFO, with its functor, and
// every other slot is the zero entry. A ticket or a functor left past len
// (or before head) would keep a settled ticket, its future, the functor's
// decode func and any spilled argument buffer alive until a later push
// happened to overwrite it.
func checkQueueStorage(t *testing.T, g *Gateway[int64], when string) {
	t.Helper()
	queued := map[*Ticket[int64]]bool{}
	inflOn := map[*Ticket[int64]]int{} // 1 + the VE whose in-flight FIFO holds the ticket
	for vi := range g.infl {
		for i := range g.infl[vi].len() {
			inflOn[g.infl[vi].at(i)] = 1 + vi
		}
	}
	for vi := range g.queues {
		for _, q := range []*fifo[entry[int64]]{&g.queues[vi].lc, &g.queues[vi].bulk} {
			lc := q == &g.queues[vi].lc
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
				case (e.tk.Class == LatencyCritical) != lc:
					t.Fatalf("%s: VE %d queues a %s ticket in the wrong FIFO", when, vi, e.tk.Class)
				case e.tk.Done() || e.tk.fut.Done():
					t.Fatalf("%s: VE %d queues a settled ticket", when, vi)
				case inflOn[e.tk] != 0:
					t.Fatalf("%s: VE %d queues a ticket in flight on VE %d", when, vi, inflOn[e.tk]-1)
				case queued[e.tk]:
					t.Fatalf("%s: a ticket is queued twice", when)
				default:
					queued[e.tk] = true
				}
			}
		}
	}
}

// TestDrainedFifoKeepsItsPeak: a FIFO drained to empty starts over at the
// front of its backing array, so the next burst of the size it has already
// held fits without growing it.
func TestDrainedFifoKeepsItsPeak(t *testing.T) {
	for _, peak := range []int{16, 33, 64, 1024} {
		var q fifo[int]
		size := 0
		for round := range 3 {
			for i := range peak {
				q.push(i)
			}
			if round == 0 {
				size = cap(q.items)
			} else if c := cap(q.items); c != size {
				t.Fatalf("peak %d, round %d: the burst grew the drained FIFO from %d to %d slots", peak, round, size, c)
			}
			for i := range peak {
				if v := q.pop(); v != i {
					t.Fatalf("peak %d: pop %d = %d", peak, i, v)
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
		Placement: Affinity(func(int) core.NodeID { return 1 }),
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
