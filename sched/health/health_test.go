package health

import (
	"testing"

	"hamoffload/internal/core"
	"hamoffload/internal/simtime"
)

// testClock is a hand-advanced simulated clock.
type testClock struct{ now simtime.Time }

func (c *testClock) tick(d simtime.Duration) { c.now = c.now.Add(d) }
func (c *testClock) read() simtime.Time      { return c.now }
func (c *testClock) Now() simtime.Time       { return c.now }
func nodes(ids ...core.NodeID) []core.NodeID { return ids }
func newT(cfg Config, clk *testClock, ids ...core.NodeID) *Tracker {
	return New(cfg, nodes(ids...), clk.read)
}

func TestDefaultsApplied(t *testing.T) {
	trk := newT(Config{}, &testClock{}, 1)
	if trk.cfg.OutlierFactor != 4 || trk.cfg.OutlierStrikes != 8 ||
		trk.cfg.FailureStrikes != 3 || trk.cfg.OpenFor != 200*simtime.Microsecond {
		t.Fatalf("defaults not applied: %+v", trk.cfg)
	}
}

func TestClosedAllowsEverything(t *testing.T) {
	trk := newT(Config{}, &testClock{}, 1, 2, 3)
	for _, n := range nodes(1, 2, 3) {
		if !trk.Allows(n) {
			t.Fatalf("fresh tracker must allow node %d", n)
		}
		if s := trk.StateOf(n); s != Closed {
			t.Fatalf("fresh node %d state = %v", n, s)
		}
	}
	// Untracked nodes are always admitted.
	if !trk.Allows(99) {
		t.Fatal("untracked node must be allowed")
	}
}

func TestFailureStrikesOpenBreaker(t *testing.T) {
	clk := &testClock{}
	trk := newT(Config{FailureStrikes: 3}, clk, 1, 2)
	trk.Observe(1, 0, true)
	trk.Observe(1, 0, true)
	if trk.StateOf(1) != Closed {
		t.Fatal("breaker opened one strike early")
	}
	trk.Observe(1, 0, true)
	if trk.StateOf(1) != Open {
		t.Fatal("three consecutive failures must open the breaker")
	}
	if trk.Allows(1) {
		t.Fatal("open breaker inside cooldown must not admit traffic")
	}
	if !trk.Allows(2) {
		t.Fatal("sibling node must stay admitted")
	}
	if trk.Transitions() != 1 {
		t.Fatalf("transitions = %d, want 1", trk.Transitions())
	}
}

func TestSuccessResetsFailureRun(t *testing.T) {
	trk := newT(Config{FailureStrikes: 3}, &testClock{}, 1, 2)
	trk.Observe(1, simtime.Microsecond, true)
	trk.Observe(1, simtime.Microsecond, true)
	trk.Observe(1, simtime.Microsecond, false) // success resets the run
	trk.Observe(1, simtime.Microsecond, true)
	trk.Observe(1, simtime.Microsecond, true)
	if trk.StateOf(1) != Closed {
		t.Fatal("non-consecutive failures must not open the breaker")
	}
}

func TestOutlierStrikesOpenBreaker(t *testing.T) {
	clk := &testClock{}
	trk := newT(Config{OutlierFactor: 3, OutlierStrikes: 4}, clk, 1, 2)
	// Node 2 is the healthy reference at ~5 µs.
	for i := 0; i < 8; i++ {
		trk.Observe(2, 5*simtime.Microsecond, false)
	}
	// Node 1 answers, but 20× slower — a gray failure.
	for i := 0; i < 3; i++ {
		trk.Observe(1, 100*simtime.Microsecond, false)
		if trk.StateOf(1) != Closed {
			t.Fatalf("breaker opened after %d outliers, want 4", i+1)
		}
	}
	trk.Observe(1, 100*simtime.Microsecond, false)
	if trk.StateOf(1) != Open {
		t.Fatal("four consecutive outliers must open the breaker")
	}
	if ew, ok := trk.EWMA(1); !ok || ew <= 0 {
		t.Fatalf("EWMA(1) = %v, %v", ew, ok)
	}
}

func TestSingleNodeNeverOutlier(t *testing.T) {
	trk := newT(Config{OutlierStrikes: 2}, &testClock{}, 1)
	for i := 0; i < 20; i++ {
		trk.Observe(1, 100*simtime.Microsecond, false)
	}
	if trk.StateOf(1) != Closed {
		t.Fatal("a lone node has no reference and must not eject on latency")
	}
}

func TestProbeReadmission(t *testing.T) {
	clk := &testClock{}
	cfg := Config{FailureStrikes: 2, OpenFor: 100 * simtime.Microsecond}
	trk := newT(cfg, clk, 1, 2)
	trk.Observe(1, 0, true)
	trk.Observe(1, 0, true)
	if trk.StateOf(1) != Open {
		t.Fatal("breaker must be open")
	}
	if trk.Allows(1) {
		t.Fatal("cooldown has not elapsed")
	}
	clk.tick(cfg.OpenFor)
	if !trk.Allows(1) {
		t.Fatal("elapsed cooldown must admit a probe")
	}
	// Allows is pure: checking twice must not consume the probe slot.
	if !trk.Allows(1) || trk.StateOf(1) != Open {
		t.Fatal("Allows must not mutate breaker state")
	}
	trk.CommitAdmit(1)
	if trk.StateOf(1) != HalfOpen {
		t.Fatal("committed admission must move the breaker to half-open")
	}
	if trk.Allows(1) {
		t.Fatal("half-open breaker with probe in flight must not admit more")
	}
	trk.Observe(1, 5*simtime.Microsecond, false)
	if trk.StateOf(1) != Closed {
		t.Fatal("successful probe must re-close the breaker")
	}
	if !trk.Allows(1) {
		t.Fatal("re-closed breaker must admit traffic")
	}
}

func TestFailedProbeReopens(t *testing.T) {
	clk := &testClock{}
	cfg := Config{FailureStrikes: 2, OpenFor: 50 * simtime.Microsecond}
	trk := newT(cfg, clk, 1, 2)
	trk.Observe(1, 0, true)
	trk.Observe(1, 0, true)
	clk.tick(cfg.OpenFor)
	trk.CommitAdmit(1)
	trk.Observe(1, 0, true) // probe fails
	if trk.StateOf(1) != Open {
		t.Fatal("failed probe must re-open the breaker")
	}
	if trk.Allows(1) {
		t.Fatal("re-opened breaker must start a fresh cooldown")
	}
	clk.tick(cfg.OpenFor)
	if !trk.Allows(1) {
		t.Fatal("fresh cooldown must elapse again")
	}
}

func TestStragglerSettlementsIgnored(t *testing.T) {
	clk := &testClock{}
	trk := newT(Config{FailureStrikes: 1, OpenFor: simtime.Second}, clk, 1, 2)
	trk.Observe(1, 0, true)
	if trk.StateOf(1) != Open {
		t.Fatal("breaker must be open")
	}
	// Settlements of offloads issued before ejection drain while open; they
	// must not move the breaker in either direction.
	trk.Observe(1, simtime.Microsecond, false)
	trk.Observe(1, 0, true)
	if trk.StateOf(1) != Open {
		t.Fatal("observations while open must not transition the breaker")
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{Closed: "closed", Open: "open", HalfOpen: "half-open"} {
		if s.String() != want {
			t.Fatalf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}

// TestUntrackedNodes: an id outside the tracked set — negative, past the
// index or in a gap of it — reads as a closed breaker with no samples, and
// observing or admitting it changes nothing. A nil clock pins
// time to 0, so an opened breaker's cooldown never elapses.
func TestUntrackedNodes(t *testing.T) {
	trk := New(Config{}, nodes(1, 3), nil)
	for _, id := range nodes(-1, 2, 99) {
		trk.Observe(id, 0, true)
		trk.CommitAdmit(id)
		if trk.StateOf(id) != Closed || !trk.Allows(id) {
			t.Errorf("untracked node %d: state %v, allowed %v", id, trk.StateOf(id), trk.Allows(id))
		}
		if _, ok := trk.EWMA(id); ok {
			t.Errorf("untracked node %d has an EWMA", id)
		}
	}
	if n := trk.Transitions(); n != 0 {
		t.Fatalf("untracked observations made %d transitions", n)
	}
	for i := 0; i < 3; i++ {
		trk.Observe(1, 0, true)
	}
	if trk.StateOf(1) != Open || trk.Allows(1) {
		t.Fatalf("under a nil clock: state %v, allowed %v, want an open breaker that stays shut", trk.StateOf(1), trk.Allows(1))
	}
	if s := State(7).String(); s != "State(7)" {
		t.Fatalf("State(7).String() = %q", s)
	}
}
