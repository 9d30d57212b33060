package trace

import (
	"bytes"
	"sync"
	"testing"

	"hamoffload/internal/simtime"
)

// TestNilCollector: every series, SLO and flow method on a nil *Tracer is a
// safe no-op — the zero-cost-off contract core's instrumentation sites rely
// on.
func TestNilCollector(t *testing.T) {
	var c *Tracer
	c.Gauge(0, SeriesInflight, 0, 1)
	c.Add(0, SeriesBytes, 0, 1)
	c.ObserveLatency(0, simtime.Microsecond)
	c.Event(1, 0, 0, FlowIssue, "x")
	if id := c.NextTraceID(); id != 0 {
		t.Fatalf("nil NextTraceID = %d, want 0", id)
	}
	if c.FlowsEnabled() {
		t.Fatal("nil FlowsEnabled = true")
	}
	if s := c.Series(); s != nil {
		t.Fatalf("nil Series = %v", s)
	}
	if r := c.SLOReport(); r.N != 0 {
		t.Fatalf("nil SLOReport = %+v", r)
	}
	var buf bytes.Buffer
	if err := c.ExportChromeFlows(&buf); err != nil {
		t.Fatal(err)
	}
	if err := c.ExportFolded(&buf); err != nil {
		t.Fatal(err)
	}
	c.Render(&buf)
	if !bytes.Contains(buf.Bytes(), []byte("telemetry disabled")) {
		t.Fatalf("nil Render output %q", buf.String())
	}
}

// TestTraceIDsDeterministic: the ID stream is nonzero, unique, and identical
// across tracers — reruns of the same simulation reuse the same IDs.
func TestTraceIDsDeterministic(t *testing.T) {
	a, b := New(Config{}), New(Config{})
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		ida, idb := a.NextTraceID(), b.NextTraceID()
		if ida != idb {
			t.Fatalf("ID %d differs across tracers: %x vs %x", i, ida, idb)
		}
		if ida == 0 {
			t.Fatalf("ID %d is zero", i)
		}
		if seen[ida] {
			t.Fatalf("ID %x repeated", ida)
		}
		seen[ida] = true
	}
}

// TestCollectorSeriesSorted: Series() snapshots are (node, name)-sorted
// regardless of recording order, and are copies (mutating a snapshot does not
// touch the live series).
func TestCollectorSeriesSorted(t *testing.T) {
	c := New(Config{})
	c.Add(1, SeriesBytes, 0, 10)
	c.Gauge(0, SeriesQueue, 0, 2)
	c.Gauge(0, SeriesInflight, 0, 1)
	s := c.Series()
	if len(s) != 3 {
		t.Fatalf("series %d, want 3", len(s))
	}
	if s[0].Name() != SeriesQueue || s[1].Name() != SeriesInflight || s[2].Node() != 1 {
		t.Fatalf("order: %s/%d, %s/%d, %s/%d", s[0].Name(), s[0].Node(),
			s[1].Name(), s[1].Node(), s[2].Name(), s[2].Node())
	}
	s[0].Bins()[0] = Bin{}
	if c.Series()[0].Bins()[0].Count == 0 {
		t.Fatal("snapshot shares storage with live series")
	}
}

// TestCollectorConcurrent: recording from multiple goroutines (the wall-clock
// backend case) is race-free and loses nothing. Run under -race.
func TestCollectorConcurrent(t *testing.T) {
	c := New(Config{Flows: true})
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				now := simtime.Time(int64(i) * int64(simtime.Microsecond))
				c.Gauge(w, SeriesInflight, now, int64(i%3))
				c.Add(w, SeriesBytes, now, 64)
				c.ObserveLatency(now, simtime.Duration(i)*simtime.Nanosecond)
				c.Event(c.NextTraceID(), now, w, FlowIssue, "f")
			}
		}(w)
	}
	wg.Wait()
	if got := c.SLOReport().N; got != workers*per {
		t.Fatalf("SLO observations %d, want %d", got, workers*per)
	}
	if got := len(c.FlowEvents()); got != workers*per {
		t.Fatalf("flow events %d, want %d", got, workers*per)
	}
	var bytesTotal int64
	for _, s := range c.Series() {
		if s.Name() == SeriesBytes {
			bytesTotal += s.Total().Sum
		}
	}
	if bytesTotal != workers*per*64 {
		t.Fatalf("bytes total %d, want %d", bytesTotal, workers*per*64)
	}
}
