package machine

import (
	"testing"

	"hamoffload/internal/faults"
	"hamoffload/internal/simtime"
)

// The DMA protocol's eight-VE connect, pinned: while the cards come up one
// after another, the VEs already serving poll their receive flags with LHM
// loads, and those polls are almost the whole run. They are the engine's to
// issue (ring's flagPoll) where no fault rule and no tracer can see them, and
// the loop's own where one can: the pinned events, clock, queue depth and
// per-card load counts are those of every VE issuing every load itself.
func TestEightVEConnectDMA(t *testing.T) {
	for _, tc := range []struct {
		name     string
		plan     *faults.Plan
		events   uint64
		now      simtime.Time
		injected uint64
		loads    [8]int64
		literal  uint64 // events of loops that issue their own loads
		ticks    uint64 // wakes the engine answered (PollTicks)
		// Tick and Hit questions the engine asked (PollAsks). A quiet poll is
		// asked once per run of a process, and a connect runs processes a few
		// hundred times. VE 0's literal loop runs one on every poll, so in the
		// slow row the other VEs' polls are asked again after each one: an
		// armed VE defeats the memo.
		asks uint64
	}{
		{"default", nil, 669_448, 7_322_220_000_000, 0,
			[8]int64{83260, 71450, 59640, 47830, 35743, 24024, 12305, 0}, 0, 669_321, 527},
		// VE 0 runs 4x slow throughout: each of its loads fires the rule, so
		// one left to the engine would show as a smaller Injected. Its loop
		// takes three events a poll — the slow-down, the load, the gap.
		{"VE 0 slow", &faults.Plan{Rules: []faults.Rule{{
			Kind: faults.SlowDown, Site: faults.SiteAny, Node: 0, Factor: 4, Until: 1 << 62,
		}}}, 746_176, 7_322_328_000_000, 81_066,
			[8]int64{81064, 71450, 59640, 47830, 35743, 24024, 12305, 0}, 3 * 81064, 502_856, 576_468},
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
				if e.Events() != tc.events || p.Now() != tc.now || e.MaxQueueLen() != 9 {
					t.Errorf("Events, Now, MaxQueueLen = %d, %d, %d; want %d, %d, 9",
						e.Events(), int64(p.Now()), e.MaxQueueLen(), tc.events, int64(tc.now))
				}
				if got := m.Timing.Faults.Injected(); got != tc.injected {
					t.Errorf("Injected = %d, want %d", got, tc.injected)
				}
				for i, c := range m.Cards {
					if got := c.Process().Loads(); got != tc.loads[i] {
						t.Errorf("VE %d loaded %d flag words, want %d", i, got, tc.loads[i])
					}
				}
				if got := e.PollAsks(); got != tc.asks {
					t.Errorf("PollAsks = %d, want %d", got, tc.asks)
				}
				// The engine answered nearly every other event, whether one
				// at a time or many pollers' at once (Engine.ahead).
				if others := e.Events() - tc.literal; e.PollTicks() != tc.ticks || e.PollTicks() < others*99/100 {
					t.Errorf("the engine answered %d of %d events, want %d, at least 99 %% of the %d not VE 0's",
						e.PollTicks(), e.Events(), tc.ticks, others)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// BenchmarkEightVEConnect is TestEightVEConnectDMA's default row on the wall
// clock: ms/connect is the wall time of one eight-VE dmab connect (7.3 s
// simulated, machine.New not included), and the engine's counts of one
// connect ride along.
func BenchmarkEightVEConnect(b *testing.B) {
	var e *simtime.Engine
	for range b.N {
		b.StopTimer()
		m, err := New(Config{VEs: 8})
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
	b.ReportMetric(float64(e.PollTicks()), "poll-ticks")
	b.ReportMetric(float64(e.PollAsks()), "poll-asks")
}
