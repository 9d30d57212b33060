package trace

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"hamoffload/internal/simtime"
)

// oracleSLO is the SLO window bookkeeping before windows were reused: every
// new window is a fresh window and histogram, and coarsen rebuilds the
// list. It is the reference the in-place SLO must report identically to.
type oracleSLO struct {
	target     simtime.Duration
	window     simtime.Duration
	maxWin     int
	wins       []*oracleWindow
	total      *Histogram
	violations int64
	opened     int // windows ever opened
}

type oracleWindow struct {
	idx        int64
	hist       *Histogram
	violations int64
}

func (s *oracleSLO) Observe(now simtime.Time, d simtime.Duration) {
	if d < 0 {
		d = 0
	}
	bucket := Bucket(d)
	s.total.ObserveIn(bucket, d)
	viol := int64(0)
	if d > s.target {
		viol = 1
		s.violations++
	}
	idx := int64(now) / int64(s.window)
	if n := len(s.wins); n > 0 && idx < s.wins[n-1].idx {
		idx = s.wins[n-1].idx
	}
	if n := len(s.wins); n == 0 || s.wins[n-1].idx != idx {
		s.wins = append(s.wins, &oracleWindow{idx: idx, hist: NewHistogram("slo.window")})
		s.opened++
		for len(s.wins) > s.maxWin {
			s.coarsen()
		}
	}
	w := s.wins[len(s.wins)-1]
	w.hist.ObserveIn(bucket, d)
	w.violations += viol
}

func (s *oracleSLO) coarsen() {
	var merged []*oracleWindow
	for _, w := range s.wins {
		idx := w.idx / 2
		if n := len(merged); n > 0 && merged[n-1].idx == idx {
			merged[n-1].hist.Merge(w.hist)
			merged[n-1].violations += w.violations
			continue
		}
		merged = append(merged, &oracleWindow{idx: idx, hist: w.hist, violations: w.violations})
	}
	s.wins = merged
	s.window *= 2
}

// report renders the oracle's state through SLO.Report, which both
// bookkeepings share.
func (s *oracleSLO) report() SLOReport {
	r := &SLO{
		target: s.target, window: s.window, maxWin: s.maxWin,
		total: s.total, violations: s.violations,
	}
	for _, w := range s.wins {
		r.wins = append(r.wins, sloWindow{idx: w.idx, violations: w.violations, hist: *w.hist})
	}
	return r.Report()
}

// sloStream is a seeded observation stream: each step advances now by a
// draw from next and draws a latency around the target.
type sloStream struct {
	name string
	next func(rng *rand.Rand, win simtime.Duration) simtime.Duration
}

var sloStreams = []sloStream{
	{"dense", func(rng *rand.Rand, win simtime.Duration) simtime.Duration {
		return simtime.Duration(rng.Int63n(int64(win) / 2))
	}},
	// now steps back by up to two windows a quarter of the time: the
	// observation lands in the newest window.
	{"out-of-order", func(rng *rand.Rand, win simtime.Duration) simtime.Duration {
		if rng.Intn(4) == 0 {
			return -simtime.Duration(rng.Int63n(2 * int64(win)))
		}
		return simtime.Duration(rng.Int63n(2 * int64(win)))
	}},
	// Gaps of up to 40 windows leave indices that stay distinct through a
	// halving, so one new window can coarsen several times.
	{"sparse", func(rng *rand.Rand, win simtime.Duration) simtime.Duration {
		if rng.Intn(3) == 0 {
			return simtime.Duration(rng.Int63n(40 * int64(win)))
		}
		return simtime.Duration(rng.Int63n(int64(win) / 4))
	}},
}

// TestSLORecycledWindowsMatchOracle: holding the windows by value in one
// list and merging them in place change nothing a report shows. Seeded streams
// (dense, out-of-order, sparse) each open more than 4 × maxWin windows —
// steps scale with the window length as it grows — and the report is
// compared with the oracle's at every 97th observation and at the end. The
// small lists coarsen on almost every new window, the full-size one runs
// through more than 4 × maxWindows windows.
func TestSLORecycledWindowsMatchOracle(t *testing.T) {
	const (
		target = 50 * simtime.Microsecond
		win    = 10 * simtime.Microsecond
	)
	for _, maxWin := range []int{2, 6, maxWindows} {
		for _, st := range sloStreams {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("max%d/%s/seed%d", maxWin, st.name, seed), func(t *testing.T) {
					rng := rand.New(rand.NewSource(seed))
					s := newSLO(target, win, maxWin)
					o := &oracleSLO{target: target, window: win, maxWin: maxWin,
						total: NewHistogram("offload.latency")}
					var now simtime.Time
					for i := 0; o.opened <= 4*maxWin; i++ {
						now += simtime.Time(st.next(rng, o.window))
						if now < 0 {
							now = 0
						}
						d := simtime.Duration(rng.Int63n(int64(2 * target)))
						if rng.Intn(50) == 0 {
							d = -d // clamped to 0 by both
						}
						s.Observe(now, d)
						o.Observe(now, d)
						if i%97 == 0 {
							compareSLO(t, i, s, o)
						}
					}
					compareSLO(t, -1, s, o)
					if o.window == win {
						t.Fatalf("the stream never coarsened")
					}
				})
			}
		}
	}
}

func compareSLO(t *testing.T, i int, s *SLO, o *oracleSLO) {
	t.Helper()
	if got, want := s.Report(), o.report(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after observation %d: report differs from the oracle\n got %+v\nwant %+v", i, got, want)
	}
}

// TestSLOObserveZeroAlloc: once the window list has been made, new windows
// are written into it, so Observe allocates nothing — also across the
// further coarsenings the runs below cause.
func TestSLOObserveZeroAlloc(t *testing.T) {
	s := NewSLO(50*simtime.Microsecond, 100*simtime.Microsecond)
	var now simtime.Time
	var d simtime.Duration
	step := func() {
		now += simtime.Time(37 * simtime.Microsecond)
		d = (d + 13*simtime.Microsecond) % (120 * simtime.Microsecond)
		s.Observe(now, d)
	}
	first := s.window
	for s.window == first {
		step()
	}
	coarsened := s.window
	if n := testing.AllocsPerRun(20000, step); n != 0 {
		t.Errorf("Observe allocates %.3f objects per call once the window list is full, want 0", n)
	}
	if s.window < 4*coarsened {
		t.Fatalf("the measured runs coarsened the windows only to %v (from %v); they must coarsen again", s.window, coarsened)
	}
	if cap(s.wins) > maxWindows+1 {
		t.Errorf("the window list holds %d windows: more than the %d a full list plus one needs",
			cap(s.wins), maxWindows+1)
	}
}
