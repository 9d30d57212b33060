package trace

import (
	"testing"

	"hamoffload/internal/simtime"
)

func TestSLOWindowsAndViolations(t *testing.T) {
	target := 50 * simtime.Microsecond
	win := 100 * simtime.Microsecond
	s := newSLO(target, win, 64)

	// Window 0: 9 fast + 1 slow. Window 1: 10 fast.
	for i := 0; i < 9; i++ {
		s.Observe(simtime.Time(int64(i)*int64(simtime.Microsecond)), 10*simtime.Microsecond)
	}
	s.Observe(simtime.Time(50*int64(simtime.Microsecond)), 80*simtime.Microsecond)
	for i := 0; i < 10; i++ {
		s.Observe(simtime.Time(int64(win)+int64(i)*int64(simtime.Microsecond)), 20*simtime.Microsecond)
	}

	r := s.Report()
	if r.N != 20 || r.Violations != 1 {
		t.Fatalf("overall n=%d viol=%d, want 20/1", r.N, r.Violations)
	}
	if len(r.Windows) != 2 {
		t.Fatalf("windows %d, want 2", len(r.Windows))
	}
	w0, w1 := r.Windows[0], r.Windows[1]
	if w0.N != 10 || w0.Violations != 1 {
		t.Fatalf("window 0: n=%d viol=%d, want 10/1", w0.N, w0.Violations)
	}
	if w1.N != 10 || w1.Violations != 0 {
		t.Fatalf("window 1: n=%d viol=%d, want 10/0", w1.N, w1.Violations)
	}
	if w1.Start != simtime.Time(win) {
		t.Fatalf("window 1 start %v, want %v", w1.Start, simtime.Time(win))
	}
	// 1 violation in 10 with a 1% budget burns 10x.
	if w0.BurnRate < 9.99 || w0.BurnRate > 10.01 {
		t.Fatalf("window 0 burn rate %v, want 10x", w0.BurnRate)
	}
	if w0.Max != 80*simtime.Microsecond {
		t.Fatalf("window 0 max %v, want 80µs", w0.Max)
	}
	if w0.P50 > target {
		t.Fatalf("window 0 p50 %v should be well under target", w0.P50)
	}
}

// TestSLOCoarsening: overflowing maxWin pair-merges windows on the absolute
// grid and doubles the window, preserving counts and violations exactly.
func TestSLOCoarsening(t *testing.T) {
	win := 10 * simtime.Microsecond
	s := newSLO(5*simtime.Microsecond, win, 4)
	// 8 consecutive windows, one observation each; every other one violates.
	for i := 0; i < 8; i++ {
		d := simtime.Microsecond
		if i%2 == 1 {
			d = 8 * simtime.Microsecond
		}
		s.Observe(simtime.Time(int64(i)*int64(win)), d)
	}
	r := s.Report()
	if r.Window != 2*win {
		t.Fatalf("window %v, want doubled %v", r.Window, 2*win)
	}
	if len(r.Windows) != 4 {
		t.Fatalf("windows %d, want 4 after coarsening", len(r.Windows))
	}
	var n, viol int64
	for _, w := range r.Windows {
		if w.N != 2 || w.Violations != 1 {
			t.Fatalf("coarsened window %+v, want n=2 viol=1", w)
		}
		n += w.N
		viol += w.Violations
	}
	if n != 8 || viol != 4 || r.Violations != 4 {
		t.Fatalf("totals n=%d viol=%d (report %d), want 8/4/4", n, viol, r.Violations)
	}
}

// TestSLOCoarsenSparse: windows whose indices stay distinct after one halving
// must keep coarsening until the list fits.
func TestSLOCoarsenSparse(t *testing.T) {
	win := 10 * simtime.Microsecond
	s := newSLO(5*simtime.Microsecond, win, 2)
	// Windows 0, 4, 8, 12: one halving leaves indices 0, 2, 4, 6 — still 4.
	for i := 0; i < 4; i++ {
		s.Observe(simtime.Time(int64(4*i)*int64(win)), simtime.Microsecond)
	}
	if len(s.wins) > 2 {
		t.Fatalf("coarsening stopped early: %d windows, max 2", len(s.wins))
	}
	r := s.Report()
	if r.N != 4 {
		t.Fatalf("n=%d, want 4", r.N)
	}
}
