package machine

import (
	"testing"

	"hamoffload/internal/faults"
	"hamoffload/internal/simtime"
)

// The DMA protocol's eight-VE connect, pinned: while the cards come up one
// after another, the VEs already serving poll their receive flags with LHM
// loads. Where no tracer records those loads, a VE's poll parks on its watch
// (ring's flagPoll) and costs no event, under a fault rule too: a slow-down
// window is in the cost of every load the parked poll passes over, and its
// From and Until are wakes. Only a load that a rule fails or delays by a draw
// of its own is the loop's. The clock and the per-card load and
// injected-fault counts are those of every VE issuing every load itself;
// events and queue depth are the parked polls'. Each card's init kernel owes
// its dispatch and pays it with its first DMAATB registration
// (simtime.Proc.Charge): one event per card fewer than a sleep each.
func TestEightVEConnectDMA(t *testing.T) {
	for _, tc := range []struct {
		name     string
		plan     *faults.Plan
		events   uint64
		maxq     int
		now      simtime.Time
		injected uint64
		loads    [8]int64
	}{
		{"default", nil, 119, 2, 7_322_220_000_000, 0,
			[8]int64{83260, 71450, 59640, 47830, 35743, 24024, 12305, 0}},
		// VE 0 runs 4x slow throughout: each of its loads fires the rule and
		// takes four LHM round trips, the cost its parked poll's grid
		// carries, so VE 0 issues no flag load itself. The two events over
		// the default row are the slow-down sleeps of VE 0's two other
		// transfers of the connect, which the SiteAny rule slows as well.
		{"VE 0 slow", slowThroughout, 121, 3, 7_322_328_000_000, 81_066,
			[8]int64{81064, 71450, 59640, 47830, 35743, 24024, 12305, 0}},
		// VE 0's gray failure begins after the connect: until it does, VE 0
		// polls like a healthy one, and every pin is the default row's.
		{"VE 0 slow after connect", slowAfterConnect, 119, 3, 7_322_220_000_000, 0,
			[8]int64{83260, 71450, 59640, 47830, 35743, 24024, 12305, 0}},
		// A window inside the connect: VE 0's poll wakes at the first tick
		// in the window and at the first after it, and parks in between
		// with the slow load in its cost — two events over the default row.
		// Clock, Injected and loads are what the literal loop gives
		// throughout.
		{"VE 0 slow mid-connect", &faults.Plan{Rules: []faults.Rule{{
			Kind: faults.SlowDown, Site: faults.SiteAny, Node: 0, Factor: 4,
			From: 3 * simtime.Time(simtime.Second), Until: 3_500 * simtime.Time(simtime.Millisecond),
		}}}, 121, 3, 7_322_220_000_000, 6_281,
			[8]int64{83090, 71450, 59640, 47830, 35743, 24024, 12305, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := New(Config{VEs: 8, Faults: tc.plan})
			if err != nil {
				t.Fatal(err)
			}
			err = m.RunMain(func(p *Proc) error {
				if _, err := ConnectDMA(p, m, ProtocolOptions{}); err != nil {
					return err
				}
				e := m.Eng
				if e.Events() != tc.events || p.Now() != tc.now || e.MaxQueueLen() != tc.maxq {
					t.Errorf("Events, Now, MaxQueueLen = %d, %d, %d; want %d, %d, %d",
						e.Events(), int64(p.Now()), e.MaxQueueLen(), tc.events, int64(tc.now), tc.maxq)
				}
				if got := m.Timing.Faults.Injected(); got != tc.injected {
					t.Errorf("Injected = %d, want %d", got, tc.injected)
				}
				for i, c := range m.Cards {
					if got := c.Process().Loads(); got != tc.loads[i] {
						t.Errorf("VE %d loaded %d flag words, want %d", i, got, tc.loads[i])
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// slowThroughout slows VE 0 4x from the start, for good.
var slowThroughout = &faults.Plan{Rules: []faults.Rule{{
	Kind: faults.SlowDown, Site: faults.SiteAny, Node: 0, Factor: 4, Until: 1 << 62,
}}}

// slowAfterConnect slows VE 0 4x in a window that opens 1.7 s after the
// eight-VE connect ends.
var slowAfterConnect = &faults.Plan{Rules: []faults.Rule{{
	Kind: faults.SlowDown, Site: faults.SiteAny, Node: 0, Factor: 4,
	From: 9 * simtime.Time(simtime.Second), Until: 9_100 * simtime.Time(simtime.Millisecond),
}}}

// BenchmarkEightVEConnect is TestEightVEConnectDMA's default row, its "VE 0
// slow" row and its "VE 0 slow after connect" row on the wall clock:
// ms/connect is the wall time of one eight-VE dmab connect (7.3 s simulated,
// machine.New not included), and the engine's event count of one connect
// rides along.
func BenchmarkEightVEConnect(b *testing.B) {
	b.Run("default", func(b *testing.B) { benchmarkEightVEConnect(b, nil) })
	b.Run("VE 0 slow", func(b *testing.B) { benchmarkEightVEConnect(b, slowThroughout) })
	b.Run("slow after connect", func(b *testing.B) { benchmarkEightVEConnect(b, slowAfterConnect) })
}

func benchmarkEightVEConnect(b *testing.B, plan *faults.Plan) {
	var e *simtime.Engine
	for range b.N {
		b.StopTimer()
		m, err := New(Config{VEs: 8, Faults: plan})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		err = m.RunMain(func(p *Proc) error {
			_, err := ConnectDMA(p, m, ProtocolOptions{})
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
		e = m.Eng
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "ms/connect")
	b.ReportMetric(float64(e.Events()), "events")
}
