package trace

import (
	"sync"
	"testing"

	"hamoffload/internal/simtime"
)

// Concurrency guard for the Registry: counters, histograms and span stats
// are fed from wall-clock backends' goroutines (locb target loops, tcpb
// handlers), so Count, Observe and observeSpan must be safe to interleave.
// Run under -race this pins the locking; the totals pin that no update is
// lost.
func TestRegistryConcurrentUpdates(t *testing.T) {
	const workers = 8
	const perWorker = 200
	r := newRegistry(0, "racetest", simtime.Microsecond)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				d := simtime.Duration(i+1) * simtime.Microsecond
				r.Count("ops", 1)
				r.Observe("latency", d)
				r.observeSpan(Span{
					Name:  "work",
					Phase: PhaseOffload,
					Start: 0,
					End:   simtime.Time(0).Add(d),
				})
				// Interleave reads with the writes: snapshots must never
				// tear or race with concurrent recording.
				if i%32 == 0 {
					_ = r.Counter("ops")
					_ = r.SpanStats()
					_ = r.CounterNames()
				}
			}
		}(w)
	}
	wg.Wait()

	const total = workers * perWorker
	if got := r.Counter("ops"); got != total {
		t.Errorf("counter ops = %d, want %d (lost updates)", got, total)
	}
	if got := r.Hist("latency").Count(); got != total {
		t.Errorf("histogram count = %d, want %d", got, total)
	}
	st := spanStat(r, "work")
	if st.Count != total {
		t.Errorf("span count = %d, want %d", st.Count, total)
	}
	if st.Min != simtime.Microsecond || st.Max != perWorker*simtime.Microsecond {
		t.Errorf("span min/max = %v/%v, want 1us/%dus", st.Min, st.Max, perWorker)
	}
	// The snapshot machinery used by veinfo -json must agree with the
	// direct accessors once recording has quiesced.
	snap := r.Snapshot()
	if len(snap.Counters) != 1 || snap.Counters[0].Value != total {
		t.Errorf("snapshot counters = %+v, want one entry of %d", snap.Counters, total)
	}
	if len(snap.Histograms) != 1 || snap.Histograms[0].Count != total {
		t.Errorf("snapshot histograms = %+v, want one entry of %d", snap.Histograms, total)
	}
}
