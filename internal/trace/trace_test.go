package trace

import (
	"bytes"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"hamoffload/internal/simtime"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram("lat")
	if h.Count() != 0 || h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Error("empty histogram not zeroed")
	}
	for _, us := range []int64{1, 2, 3, 4, 10} {
		h.Observe(simtime.Duration(us) * simtime.Microsecond)
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.Min() != simtime.Microsecond {
		t.Errorf("Min = %v", h.Min())
	}
	if h.Max() != 10*simtime.Microsecond {
		t.Errorf("Max = %v", h.Max())
	}
	if h.Mean() != 4*simtime.Microsecond {
		t.Errorf("Mean = %v", h.Mean())
	}
	if h.sum != 20*simtime.Microsecond {
		t.Errorf("sum = %v", h.sum)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram("q")
	for i := 1; i <= 1000; i++ {
		h.Observe(simtime.Duration(i) * simtime.Microsecond)
	}
	p50 := h.Quantile(0.5)
	if p50 < 300*simtime.Microsecond || p50 > 800*simtime.Microsecond {
		t.Errorf("p50 = %v, want near 500us (bucket resolution)", p50)
	}
	if h.Quantile(0) != h.Min() {
		t.Error("q=0 should be min")
	}
	if h.Quantile(1) != h.Max() {
		t.Error("q=1 should be max")
	}
	// Monotone in q.
	prev := simtime.Duration(0)
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		v := h.Quantile(q)
		if v < prev {
			t.Errorf("quantiles not monotone at q=%v", q)
		}
		prev = v
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram("n")
	h.Observe(-5)
	if h.Min() != 0 || h.Max() != 0 {
		t.Error("negative observation not clamped to zero")
	}
}

func TestHistogramRender(t *testing.T) {
	h := NewHistogram("render")
	for i := 0; i < 100; i++ {
		h.Observe(6 * simtime.Microsecond)
	}
	var buf bytes.Buffer
	h.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "n=100") || !strings.Contains(out, "#") {
		t.Errorf("render output:\n%s", out)
	}
	// Empty histogram renders without panicking.
	buf.Reset()
	NewHistogram("empty").Render(&buf)
	if !strings.Contains(buf.String(), "n=0") {
		t.Error("empty render missing n=0")
	}
}

// Property: quantile estimates are always within [min, max] and bucket
// bounds never invert the ordering of well-separated populations.
func TestHistogramQuantileBoundsProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram("prop")
		var exact []int64
		for _, r := range raw {
			d := simtime.Duration(r%1_000_000) * simtime.Nanosecond
			h.Observe(d)
			exact = append(exact, int64(d))
		}
		sort.Slice(exact, func(i, j int) bool { return exact[i] < exact[j] })
		for _, q := range []float64{0.1, 0.5, 0.9} {
			v := h.Quantile(q)
			if v < h.Min() || v > h.Max() {
				return false
			}
			// The estimator returns the lower bound of the bucket holding
			// the (rank+1)-th smallest sample, where rank = q*count. That
			// sample bounds the estimate from above, and the sqrt(2) bucket
			// width bounds it from below (with 1 ns slack at the bottom).
			idx := int(q * float64(len(exact)))
			if idx >= len(exact) {
				idx = len(exact) - 1
			}
			sample := exact[idx]
			if int64(v) > sample {
				return false
			}
			if low := sample/2 - 2; int64(v) < low && v > h.Min() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTracerSpansAndChromeExport(t *testing.T) {
	eng := simtime.NewEngine()
	r := NewTracer()
	eng.Spawn("worker", func(p *simtime.Proc) {
		end := r.Span(p, "dma", "transfer")
		p.Sleep(5 * simtime.Microsecond)
		end()
		end2 := r.Span(p, "veo", "call")
		p.Sleep(simtime.Microsecond)
		end2()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
	spans := r.Spans()
	if spans[0].Name != "transfer" || spans[0].End-spans[0].Start != simtime.Time(5*simtime.Microsecond) {
		t.Errorf("span 0 = %+v", spans[0])
	}
	var buf bytes.Buffer
	if err := r.ExportChrome(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"ph":"X"`, `"name":"transfer"`, `"thread_name"`, `"dur":5`} {
		if !strings.Contains(out, want) {
			t.Errorf("chrome export missing %s:\n%s", want, out)
		}
	}
}

// Spans past the cap are not kept but counted, and the Chrome export says
// how many it lacks; a run under the cap exports no such row.
func TestDroppedSpansAreCounted(t *testing.T) {
	const limit, k = 5, 3
	eng := simtime.NewEngine()
	r := NewTracer()
	r.limit = limit
	eng.Spawn("worker", func(p *simtime.Proc) {
		for i := 0; i < limit+k; i++ {
			r.Instant(p, "fault", "mark")
			if i == limit-1 {
				var buf bytes.Buffer
				if err := r.ExportChrome(&buf); err != nil {
					t.Error(err)
				}
				if strings.Contains(buf.String(), "trace_dropped_spans") || r.Dropped() != 0 {
					t.Errorf("at the cap: Dropped = %d, export %s", r.Dropped(), buf.String())
				}
			}
			p.Sleep(simtime.Nanosecond)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if r.Len() != limit || r.Dropped() != k {
		t.Fatalf("Len, Dropped = %d, %d, want %d, %d", r.Len(), r.Dropped(), limit, k)
	}
	var buf bytes.Buffer
	if err := r.ExportChrome(&buf); err != nil {
		t.Fatal(err)
	}
	want := `{"name":"trace_dropped_spans","ph":"M","ts":0,"pid":1,"tid":0,"args":{"dropped":3,"limit":5}}`
	if !strings.HasPrefix(buf.String(), "["+want+",") {
		t.Errorf("chrome export does not open with %s:\n%s", want, buf.String())
	}
	if n := strings.Count(buf.String(), `"ph":"i"`); n != limit {
		t.Errorf("chrome export holds %d instants, want %d", n, limit)
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var r *Tracer
	eng := simtime.NewEngine()
	eng.Spawn("p", func(p *simtime.Proc) {
		end := r.Span(p, "x", "y") // must not panic
		end()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 || r.Spans() != nil {
		t.Error("nil recorder should be empty")
	}
	if err := r.ExportChrome(&bytes.Buffer{}); err == nil {
		t.Error("export from nil recorder should error")
	}
}
