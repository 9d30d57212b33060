package trace

import (
	"math/rand"
	"testing"

	"hamoffload/internal/simtime"
)

// oracleBins folds samples directly onto the grid of width interval — the
// downsampling-free reference layout. Samples must be time-nondecreasing.
func oracleBins(samples []sample, interval simtime.Duration) map[int64]Bin {
	out := map[int64]Bin{}
	for _, sm := range samples {
		idx := int64(sm.t) / int64(interval)
		out[idx] = mergeBins(out[idx], Bin{Count: 1, Sum: sm.v, Min: sm.v, Max: sm.v, Last: sm.v})
	}
	return out
}

type sample struct {
	t simtime.Time
	v int64
}

// TestDownsampleDeterministicLossless is the property test for the series
// ring buffer: for random nondecreasing sample streams that overflow the ring
// several times, the final layout must (a) equal the oracle binning computed
// directly at the final interval — i.e. downsampling is deterministic and
// depends only on the samples, not on when the ring filled — and (b) preserve
// the aggregate Count/Sum/Min/Max/Last exactly.
func TestDownsampleDeterministicLossless(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		maxBins := 2 * (2 + rng.Intn(15)) // 4..32, even
		interval := simtime.Duration(1+rng.Intn(1000)) * simtime.Nanosecond
		n := 50 + rng.Intn(500)

		var samples []sample
		now := simtime.Time(rng.Int63n(int64(interval) * 10))
		for i := 0; i < n; i++ {
			// Long strides force repeated downsampling; short ones test
			// same-bin merges.
			now = now.Add(simtime.Duration(rng.Int63n(int64(interval) * 5)))
			samples = append(samples, sample{t: now, v: rng.Int63n(1000) - 200})
		}

		s := newSeries("prop", 0, Counter, interval, maxBins)
		for _, sm := range samples {
			s.record(sm.t, sm.v)
		}

		if len(s.bins) > maxBins {
			t.Fatalf("seed %d: ring overflowed: %d bins > max %d", seed, len(s.bins), maxBins)
		}

		// (a) determinism: final bins == direct binning at the final interval.
		oracle := oracleBins(samples, s.interval)
		for i, b := range s.bins {
			idx := s.firstBin + int64(i)
			want := oracle[idx]
			if b != want {
				t.Fatalf("seed %d: bin %d (grid %d): got %+v want %+v (interval %v)",
					seed, i, idx, b, want, s.interval)
			}
			delete(oracle, idx)
		}
		for idx, b := range oracle {
			t.Fatalf("seed %d: oracle bin at grid %d (%+v) missing from ring", seed, idx, b)
		}

		// (b) losslessness: bins re-aggregate to the all-time total.
		var agg Bin
		for _, b := range s.bins {
			agg = mergeBins(agg, b)
		}
		if agg != s.total {
			t.Fatalf("seed %d: aggregate %+v != total %+v", seed, agg, s.total)
		}
		if agg.Count != int64(n) {
			t.Fatalf("seed %d: aggregate count %d != samples %d", seed, agg.Count, n)
		}
	}
}

// TestDownsampleAtExactBoundary pins the exact ring-boundary behaviour: the
// ring fills to maxBins without downsampling, and the first sample past the
// edge halves resolution once.
func TestDownsampleAtExactBoundary(t *testing.T) {
	const maxBins = 8
	iv := simtime.Microsecond
	s := newSeries("edge", 0, Counter, iv, maxBins)
	for i := 0; i < maxBins; i++ {
		s.record(simtime.Time(int64(i)*int64(iv)), 1)
	}
	if len(s.bins) != maxBins || s.interval != iv {
		t.Fatalf("pre-boundary: %d bins at %v, want %d at %v", len(s.bins), s.interval, maxBins, iv)
	}
	s.record(simtime.Time(int64(maxBins)*int64(iv)), 1)
	if s.interval != 2*iv {
		t.Fatalf("post-boundary interval %v, want %v", s.interval, 2*iv)
	}
	if len(s.bins) != maxBins/2+1 {
		t.Fatalf("post-boundary bins %d, want %d", len(s.bins), maxBins/2+1)
	}
	for i, b := range s.bins {
		wantCount := int64(2)
		if i == len(s.bins)-1 {
			wantCount = 1
		}
		if b.Count != wantCount || b.Sum != wantCount {
			t.Fatalf("bin %d: %+v, want count=sum=%d", i, b, wantCount)
		}
	}
}

// TestStaleSampleClampsToNewestBin: recording with a timestamp older than the
// newest bin folds into the newest bin instead of rewriting history.
func TestStaleSampleClampsToNewestBin(t *testing.T) {
	iv := simtime.Microsecond
	s := newSeries("stale", 0, Gauge, iv, 8)
	s.record(simtime.Time(5*int64(iv)), 10)
	s.record(simtime.Time(2*int64(iv)), 7) // stale
	if got := len(s.bins); got != 1 {
		t.Fatalf("bins %d, want 1 (stale sample must not extend backwards)", got)
	}
	b := s.bins[0]
	if b.Count != 2 || b.Last != 7 || b.Max != 10 {
		t.Fatalf("newest bin %+v, want both samples merged", b)
	}
}

// TestGaugeCounterRendering: empty-bin handling differs by kind.
func TestGaugeCounterRendering(t *testing.T) {
	iv := simtime.Microsecond
	g := newSeries("g", 0, Gauge, iv, 16)
	g.record(0, 3)
	g.record(simtime.Time(3*int64(iv)), 5) // bins 1,2 empty
	line, peak := sparkline(g)
	if peak != 5 {
		t.Fatalf("gauge peak %d, want 5", peak)
	}
	if len(line) != 4 {
		t.Fatalf("gauge line %q, want 4 columns", line)
	}
	// Empty gauge bins inherit the previous level, so columns 1 and 2 must
	// render like column 0, not like zero.
	if line[1] != line[0] || line[2] != line[0] {
		t.Fatalf("gauge carry-forward broken: %q", line)
	}

	c := newSeries("c", 0, Counter, iv, 16)
	c.record(0, 3)
	c.record(simtime.Time(3*int64(iv)), 5)
	cl, _ := sparkline(c)
	if cl[1] != ' ' || cl[2] != ' ' {
		t.Fatalf("counter empty bins should render blank: %q", cl)
	}
}
