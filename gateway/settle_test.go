package gateway

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"hamoffload/internal/core"
	"hamoffload/machine"
)

// TestSettlementOrder pins when and in which order the gateway accounts its
// requests, on a run that reaches every place a request can settle: Poll's
// probe of a VE's oldest request, Drain's blocking wait, a post that fails
// inside core.Issue, and a batch frame whose post fails when it ships. Three
// VEs serve latency-critical, batch and best-effort traffic in frames of
// three; most requests are pinned to the first VE, which the idle VEs steal
// from, and the second VE's card dies a third of the way through
// (settlementRun). The run's whole accounting is compared with the values
// recorded once a down VE stopped stealing: an FNV-64a hash of each class's
// samples in completion order, every Report counter, and a hash over every
// ticket's latency in submission order. A request accounted one probe late,
// one instant late or out of order changes at least one of them.
func TestSettlementOrder(t *testing.T) {
	var got string
	settlementRun(t, nil, func(g *Gateway[int64], tks []*Ticket[int64]) {
		lat := fnv.New64a()
		for _, tk := range tks {
			d, _ := tk.Latency()
			fmt.Fprintf(lat, "%d,", d)
		}
		r := g.Report()
		got = fmt.Sprintf("submitted %d steals %d tickets %d latencies %016x", r.Submitted, r.Steals, len(tks), lat.Sum64())
		for _, c := range r.Classes {
			h := fnv.New64a()
			for _, s := range c.Samples {
				fmt.Fprintf(h, "%x,", math.Float64bits(s))
			}
			got += fmt.Sprintf("\n%s: admitted %d rejected %d+%d completed %d failed %d slo n %d violations %d samples %d %016x",
				c.Class, c.Admitted, c.RejectedQuota, c.RejectedShare, c.Completed, c.Failed,
				c.SLO.N, c.SLO.Violations, len(c.Samples), h.Sum64())
		}
		for _, v := range r.VEs {
			got += fmt.Sprintf("\nve %d: issued %d stolen in %d max queue %d", v.Node, v.Issued, v.StolenIn, v.MaxQueue)
		}
	})
	const want = `submitted 600 steals 20 tickets 600 latencies 395f3d5ceea60e21
latency-critical: admitted 346 rejected 0+0 completed 346 failed 33 slo n 346 violations 240 samples 346 9acda8ab593c06fc
batch: admitted 127 rejected 0+0 completed 127 failed 12 slo n 127 violations 0 samples 127 0202a7bc24d78bb9
best-effort: admitted 127 rejected 0+0 completed 127 failed 14 slo n 127 violations 0 samples 127 cec74422cfea9a21
ve 1: issued 216 stolen in 0 max queue 127
ve 2: issued 100 stolen in 15 max queue 14
ve 3: issued 284 stolen in 284 max queue 58`
	if got != want {
		t.Errorf("settlement accounting:\n%s\nwant:\n%s", got, want)
	}
}

// settlementRun runs TestSettlementOrder's workload, calls atKill (if not
// nil) right after the second VE's card dies, and hands the drained
// gateway and every admitted ticket, in submission order, to done.
//
// Requests arrive spread out and are polled every fourth, except for a
// burst of n/6 that arrive at once, so that every VE has a full window and a
// queue. Halfway through the burst the second VE's card dies with its window
// and queue full; Drain then meets full windows on the two live VEs while
// the dead one fails its queue, latency-critical requests inside core.Issue
// and bulk ones in frames. The rest arrive spread out again.
func settlementRun(t *testing.T, atKill func(g *Gateway[int64]), done func(g *Gateway[int64], tks []*Ticket[int64])) {
	cfg := Config{
		Window: 4, MaxBatch: 3, KeepSamples: true,
		Placement: Affinity(func(i int) core.NodeID {
			if i%7 == 0 {
				return 2
			}
			return 1
		}),
	}
	const n = 600
	onMachineGateway(t, 3, cfg, func(p *machine.Proc, m *machine.Machine, g *Gateway[int64]) {
		tks := make([]*Ticket[int64], 0, n)
		for i := range n {
			spread := i < n/3 || i >= n/2
			switch i {
			case n/3 + n/12:
				m.Cards[1].Kill()
				if atKill != nil {
					atKill(g)
				}
			case n / 2:
				g.Drain()
			}
			if spread {
				p.Sleep(machine.Duration(i%5) * 400 * machine.Nanosecond)
			}
			class := Class(i % NumClasses)
			if i%11 < 4 {
				class = LatencyCritical
			}
			tk, err := g.Submit(0, class, allocWork.Bind(int64(i), 1))
			if err != nil {
				continue
			}
			tks = append(tks, tk)
			if spread && i%4 == 3 {
				g.Poll()
			}
		}
		g.Drain()
		if g.InFlight() != 0 || g.Queued() != 0 {
			t.Fatalf("after Drain: %d in flight, %d queued", g.InFlight(), g.Queued())
		}
		for i, tk := range tks {
			if !tk.Done() {
				t.Fatalf("ticket %d is not settled after Drain", i)
			}
		}
		done(g, tks)
	})
}

// TestDeadVEDoesNotSteal: a VE whose card died fails every post at once, so
// its window and queue are always empty; once one of its requests settles
// with core.ErrNodeFailed it must not steal the live VEs' backlog. On
// TestSettlementOrder's run the dead VE takes nothing after the kill, and
// the only requests that fail are those placed on it or stolen before it
// died.
func TestDeadVEDoesNotSteal(t *testing.T) {
	var atKill int64
	settlementRun(t, func(g *Gateway[int64]) { atKill = g.Report().VEs[1].StolenIn },
		func(g *Gateway[int64], tks []*Ticket[int64]) {
			if got := g.Report().VEs[1].StolenIn; got != atKill {
				t.Errorf("dead VE stole %d requests after its card died (%d at the kill, %d after Drain)", got-atKill, atKill, got)
			}
			failed, pinned := 0, 0
			for i, tk := range tks {
				if tk.Err() != nil {
					failed++
				}
				if i%7 == 0 {
					pinned++
				}
			}
			if limit := pinned + int(atKill); failed > limit {
				t.Errorf("%d of %d requests failed, more than the %d placed on the dead VE and the %d it stole before the kill",
					failed, len(tks), pinned, atKill)
			}
		})
}

// TestFailedFrameAccountsInIssueOrder: a batch frame whose post fails inside
// the core.Issue that fills it settles all its requests at once, and the
// gateway accounts them in issue order, not the filling request first. Four
// requests fill the one VE's window, its card dies, three batch requests
// queue behind them at distinct instants, and the Poll that fails the four
// ships the three as one frame to the dead card.
func TestFailedFrameAccountsInIssueOrder(t *testing.T) {
	cfg := Config{Window: 4, MaxBatch: 3, KeepSamples: true}
	onMachineGateway(t, 1, cfg, func(p *machine.Proc, m *machine.Machine, g *Gateway[int64]) {
		for i := range 4 {
			if _, err := g.Submit(0, LatencyCritical, allocWork.Bind(int64(i), 1)); err != nil {
				t.Fatal(err)
			}
		}
		m.Cards[0].Kill()
		var tks []*Ticket[int64]
		for i := range 3 {
			p.Sleep(machine.Microsecond)
			tk, err := g.Submit(0, Batch, allocWork.Bind(int64(i), 1))
			if err != nil {
				t.Fatal(err)
			}
			tks = append(tks, tk)
		}
		g.Poll()
		samples := g.Report().Classes[Batch].Samples
		if len(samples) != len(tks) {
			t.Fatalf("%d batch requests accounted, want %d", len(samples), len(tks))
		}
		for i, tk := range tks {
			d, _ := tk.Latency()
			if tk.Err() == nil || samples[i] != d.Microseconds() {
				t.Errorf("batch sample %d = %v µs (error %v), want ticket %d's failed latency %v µs", i, samples[i], tk.Err(), i, d.Microseconds())
			}
		}
	})
}
