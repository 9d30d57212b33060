package gateway

import (
	"errors"
	"testing"

	"hamoffload/internal/core"
	"hamoffload/internal/simtime"
	"hamoffload/machine"
)

// This file tests the ticket's own state: its one time word, and a request
// whose offload fails while Submit issues it.

// sizedWork returns the length of its argument.
var sizedWork = core.NewFunc1[int64]("gateway.sized_work",
	func(_ *core.Ctx, b []byte) (int64, error) { return int64(len(b)), nil })

// TestTicketTimeWord: a ticket's time word is its arrival until the request
// settles and its latency from then on. Before the settle the ticket reports
// no latency and the zero value, and a steal moves it to another VE with its
// arrival; after the settle the latency is the settle time less the
// arrival, to the nanosecond, on whichever VE it ran.
func TestTicketTimeWord(t *testing.T) {
	cfg := Config{
		Window: 1, MaxBatch: 1,
		Placement: Affinity(func(int) core.NodeID { return 1 }),
	}
	onGateway(t, 2, cfg, func(p *machine.Proc, g *Gateway[int64]) {
		const n = 12
		tks := make([]*Ticket[int64], n)
		arrive := make([]simtime.Time, n)
		settled := make([]simtime.Time, n)
		ranOn := make([]int, n)
		for i := range tks {
			p.Sleep(simtime.Duration(i+1) * machine.Microsecond)
			arrive[i] = g.rt.SimNow()
			tk, err := g.Submit(0, LatencyCritical, allocWork.Bind(int64(i), 0))
			if err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
			tks[i] = tk
			tk.fut.OnSettle(func() { settled[i], ranOn[i] = g.rt.SimNow(), veOf(g, tk) })
			for j, tk := range tks[:i+1] {
				if tk.Done() {
					t.Fatalf("ticket %d settled before anything polled", j)
				}
				if lat, ok := tk.Latency(); lat != 0 || ok {
					t.Fatalf("unsettled ticket %d: Latency() = %v, %v; want 0, false", j, lat, ok)
				}
				if v, err := tk.Value(); v != 0 || err != nil {
					t.Fatalf("unsettled ticket %d: Value() = %d, %v; want the zero value", j, v, err)
				}
				if veOf(g, tk) < 0 {
					t.Fatalf("unsettled ticket %d sits in no run queue or in-flight FIFO", j)
				}
				if tk.stamp != int64(arrive[j]) {
					t.Fatalf("unsettled ticket %d on VE %d: time word %d, arrived at %d", j, veOf(g, tk), tk.stamp, arrive[j])
				}
			}
		}
		if g.Steals() == 0 {
			t.Fatal("the idle VE did not steal from the pinned queue")
		}
		g.Drain()
		stolen := 0
		for i, tk := range tks {
			if ranOn[i] != 0 {
				stolen++
			}
			lat, ok := tk.Latency()
			if want := settled[i].Sub(arrive[i]); !ok || lat != want || lat <= 0 {
				t.Errorf("ticket %d (VE %d): Latency() = %v, %v; want settle %v - arrival %v = %v",
					i, ranOn[i], lat, ok, settled[i], arrive[i], want)
			}
			if v, err := tk.Value(); v != int64(i) || err != nil {
				t.Errorf("ticket %d: Value() = %d, %v", i, v, err)
			}
		}
		if stolen == 0 {
			t.Error("no ticket settled on the VE that stole")
		}
	})
}

// veOf returns the VE whose run queue or in-flight FIFO holds tk, or -1.
func veOf[R any](g *Gateway[R], tk *Ticket[R]) int {
	for vi := range g.nodes {
		for _, q := range []*fifo[entry[R]]{&g.queues[vi].lc, &g.queues[vi].bulk} {
			for i := range q.len() {
				if q.at(i).tk == tk {
					return vi
				}
			}
		}
		for i := range g.infl[vi].len() {
			if g.infl[vi].at(i) == tk {
				return vi
			}
		}
	}
	return -1
}

// TestSubmitFailureStaysSettled: a request whose offload fails while Submit
// issues it — a message over the maximum message length, or a post to a
// crashed VE; one per wire message or in a batch frame — is settled when
// Submit returns. Its ticket is done with the error, the gateway counted it
// once, a Poll retires it without touching a call, and a hook registered
// afterwards runs exactly once.
func TestSubmitFailureStaysSettled(t *testing.T) {
	big := sizedWork.Bind(make([]byte, 8<<10))
	for _, class := range []Class{LatencyCritical, Batch} {
		for _, crash := range []bool{false, true} {
			pin := core.NodeID(1)
			cfg := Config{Placement: Affinity(func(int) core.NodeID { return pin })}
			onMachineGateway(t, 2, cfg, func(p *machine.Proc, m *machine.Machine, g *Gateway[int64]) {
				fn, want := big, error(nil)
				if crash {
					m.Cards[0].Kill()
					fn, want = sizedWork.Bind([]byte{1, 2, 3}), core.ErrNodeFailed
				}
				name := class.String()
				tk, err := g.Submit(0, class, fn)
				if err != nil {
					t.Fatalf("%s: submit: %v", name, err)
				}
				if !tk.Done() {
					t.Fatalf("%s (crash %v): the failed request is not settled when Submit returns", name, crash)
				}
				if _, err := tk.Value(); err == nil || (want != nil && !errors.Is(err, want)) {
					t.Errorf("%s (crash %v): Value() error %v, want %v", name, crash, err, want)
				}
				if _, ok := tk.Latency(); !ok {
					t.Errorf("%s (crash %v): the failed ticket reports no latency", name, crash)
				}
				cs := &g.classes[class]
				if cs.completed != 1 || cs.failed != 1 {
					t.Errorf("%s (crash %v): %d completed, %d failed; want 1, 1", name, crash, cs.completed, cs.failed)
				}
				runs := 0
				tk.fut.OnSettle(func() { runs++ })
				if settled := g.Poll(); settled != 1 || g.InFlight() != 0 {
					t.Errorf("%s (crash %v): Poll settled %d, %d left in flight; want 1, 0", name, crash, settled, g.InFlight())
				}
				// The next request goes to the live VE and takes the failed
				// request's call off the free list.
				pin = 2
				next, err := g.Submit(0, class, sizedWork.Bind([]byte{1, 2, 3}))
				if err != nil {
					t.Fatalf("%s: submit: %v", name, err)
				}
				g.Drain()
				if v, err := next.Value(); v != 3 || err != nil {
					t.Errorf("%s (crash %v): the next request = %d, %v; want 3", name, crash, v, err)
				}
				if runs != 1 || cs.completed != 2 || cs.failed != 1 {
					t.Errorf("%s (crash %v): late hook ran %d times; %d completed, %d failed; want 1; 2, 1",
						name, crash, runs, cs.completed, cs.failed)
				}
			})
		}
	}
}
