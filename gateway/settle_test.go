package gateway

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"hamoffload/internal/core"
	"hamoffload/machine"
	"hamoffload/sched"
)

// TestSettlementOrder pins when and in which order the gateway accounts its
// requests, on a run that reaches every place a request can settle: Poll's
// probe of a VE's oldest request, Drain's blocking wait, a post that fails
// inside core.Issue, and a batch frame whose post fails when it ships. Three
// VEs serve latency-critical, batch and best-effort traffic in frames of
// three; most requests are pinned to the first VE, which the idle VEs steal
// from, and its card dies a third of the way through. The run's whole
// accounting is compared with the values recorded before the gateway
// accounted requests in its own harvest: an FNV-64a hash of each class's
// samples in completion order, every Report counter, and a hash over every
// ticket's latency in submission order. A request accounted one probe late,
// one instant late or out of order changes at least one of them.
func TestSettlementOrder(t *testing.T) {
	cfg := Config{
		Window: 4, MaxBatch: 3, KeepSamples: true,
		Placement: sched.Affinity(func(i int) core.NodeID {
			if i%7 == 0 {
				return 2
			}
			return 1
		}),
	}
	// Requests arrive spread out and are polled every fourth, except for a
	// burst of n/6 that arrive at once, so that every VE has a full window
	// and a queue. Halfway through the burst the second VE's card dies with
	// its window and queue full; Drain then meets full windows on the two
	// live VEs while the dead one fails its queue, latency-critical requests
	// inside core.Issue and bulk ones in frames. The rest arrive spread out
	// again.
	const n = 600
	var got string
	onMachineGateway(t, 3, cfg, func(p *machine.Proc, m *machine.Machine, g *Gateway[int64]) {
		tks := make([]*Ticket[int64], 0, n)
		for i := range n {
			spread := i < n/3 || i >= n/2
			switch i {
			case n/3 + n/12:
				m.Cards[1].Kill()
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
		lat := fnv.New64a()
		for i, tk := range tks {
			d, ok := tk.Latency()
			if !ok || !tk.Done() {
				t.Fatalf("ticket %d is not settled after Drain", i)
			}
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
	const want = `submitted 600 steals 219 tickets 600 latencies 3cba277613f75270
latency-critical: admitted 346 rejected 0+0 completed 346 failed 203 slo n 346 violations 64 samples 346 23b3b4c6d73bbf7a
batch: admitted 127 rejected 0+0 completed 127 failed 95 slo n 127 violations 0 samples 127 d3a9735e20a7f05f
best-effort: admitted 127 rejected 0+0 completed 127 failed 99 slo n 127 violations 0 samples 127 3ba4bf47a111e7b4
ve 1: issued 102 stolen in 0 max queue 127
ve 2: issued 438 stolen in 353 max queue 63
ve 3: issued 60 stolen in 73 max queue 24`
	if got != want {
		t.Errorf("settlement accounting:\n%s\nwant:\n%s", got, want)
	}
}
