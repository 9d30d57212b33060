package trace

import "hamoffload/internal/simtime"

// maxWindows caps the retained SLO windows (even, so pairs merge cleanly).
const maxWindows = 64

// ObserveLatency feeds one completed offload's issue-to-settle latency into
// the SLO tracker, binned by completion time.
func (t *Tracer) ObserveLatency(now simtime.Time, d simtime.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.slo.Observe(now, d)
	t.mu.Unlock()
}

// SLOReport returns the current SLO accounting (zero value on nil).
func (t *Tracer) SLOReport() SLOReport {
	if t == nil {
		return SLOReport{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.slo.Report()
}

// SLO tracks offload latency against an objective over rolling simulated-
// time windows: each window holds a full latency histogram (so p50/p99/p99.9
// are available per window, not just overall) plus a violation count. When
// the window list outgrows maxWin, adjacent windows pair-merge on even grid
// boundaries and the window length doubles — the same lossless downsampling
// scheme as Series, applied to histograms.
//
// Windows are held by value in one list of maxWin+1, made on the first
// observation; coarsen merges them in place, so later observations
// allocate nothing.
type SLO struct {
	target     simtime.Duration
	window     simtime.Duration
	maxWin     int
	wins       []sloWindow
	total      *Histogram
	violations int64
}

// sloWindow is one accounting window on the absolute grid: window idx covers
// [idx*window, (idx+1)*window).
type sloWindow struct {
	idx        int64
	violations int64
	hist       Histogram
}

// sloBudget is the allowed violation fraction of every SLO: 1%.
const sloBudget = 0.01

func newSLO(target, window simtime.Duration, maxWin int) *SLO {
	return &SLO{
		target: target, window: window, maxWin: maxWin,
		total: NewHistogram("offload.latency"),
	}
}

// NewSLO builds a standalone SLO tracker outside any Tracer, for callers
// that account several objectives side by side — the serving gateway keeps
// one per QoS class. Zero or negative parameters select the Tracer's
// defaults (50 µs target, 100 µs windows).
func NewSLO(target, window simtime.Duration) *SLO {
	cfg := Config{SLOTarget: target, SLOWindow: window}.fill()
	return newSLO(cfg.SLOTarget, cfg.SLOWindow, maxWindows)
}

// Observe records one completed request's latency at simulated time now.
func (s *SLO) Observe(now simtime.Time, d simtime.Duration) {
	if d < 0 {
		d = 0
	}
	bucket := Bucket(d) // once, for the total and the window histogram
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
		if s.wins == nil {
			s.wins = make([]sloWindow, 0, s.maxWin+1)
		}
		s.wins = append(s.wins, sloWindow{idx: idx, hist: *NewHistogram("slo.window")})
		// Sparse windows may survive one halving with distinct indices, so
		// coarsen until the list fits again.
		for len(s.wins) > s.maxWin {
			s.coarsen()
		}
	}
	w := &s.wins[len(s.wins)-1]
	w.hist.ObserveIn(bucket, d)
	w.violations += viol
}

// coarsen doubles the window length and re-buckets the existing windows on
// the coarser grid, merging histograms of windows that now share an index.
// Like Series.downsample, alignment is to the absolute grid, so the final
// layout depends only on the observations. It merges in place: the merged
// list is a prefix of the old one.
func (s *SLO) coarsen() {
	merged := s.wins[:0]
	for i := range s.wins {
		w := &s.wins[i]
		idx := w.idx / 2
		if n := len(merged); n > 0 && merged[n-1].idx == idx {
			merged[n-1].hist.Merge(&w.hist)
			merged[n-1].violations += w.violations
			continue
		}
		w.idx = idx
		merged = append(merged, *w)
	}
	s.wins = merged
	s.window *= 2
}

// SLOWindowStat is the report row for one accounting window.
type SLOWindowStat struct {
	Start         simtime.Time
	N             int64
	P50           simtime.Duration
	P99           simtime.Duration
	P999          simtime.Duration
	Max           simtime.Duration
	Violations    int64
	ViolationRate float64 // Violations / N
	BurnRate      float64 // ViolationRate / budget; >1 burns error budget
}

// SLOReport is the full SLO accounting snapshot.
type SLOReport struct {
	Target  simtime.Duration
	Budget  float64
	Window  simtime.Duration // current (possibly coarsened) window length
	Windows []SLOWindowStat

	// Overall accounting across every observation.
	N             int64
	P50           simtime.Duration
	P99           simtime.Duration
	P999          simtime.Duration
	Max           simtime.Duration
	Mean          simtime.Duration
	Violations    int64
	ViolationRate float64
	BurnRate      float64
}

// Report snapshots the SLO accounting.
func (s *SLO) Report() SLOReport {
	r := SLOReport{
		Target: s.target, Budget: sloBudget, Window: s.window,
		N:    s.total.Count(),
		P50:  s.total.Quantile(0.5),
		P99:  s.total.Quantile(0.99),
		P999: s.total.Quantile(0.999),
		Max:  s.total.Max(),
		Mean: s.total.Mean(),

		Violations: s.violations,
	}
	if r.N > 0 {
		r.ViolationRate = float64(r.Violations) / float64(r.N)
		r.BurnRate = r.ViolationRate / sloBudget
	}
	for i := range s.wins {
		w := &s.wins[i]
		ws := SLOWindowStat{
			Start:      simtime.Time(w.idx * int64(s.window)),
			N:          w.hist.Count(),
			P50:        w.hist.Quantile(0.5),
			P99:        w.hist.Quantile(0.99),
			P999:       w.hist.Quantile(0.999),
			Max:        w.hist.Max(),
			Violations: w.violations,
		}
		if ws.N > 0 {
			ws.ViolationRate = float64(ws.Violations) / float64(ws.N)
			ws.BurnRate = ws.ViolationRate / sloBudget
		}
		r.Windows = append(r.Windows, ws)
	}
	return r
}
