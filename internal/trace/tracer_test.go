package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"hamoffload/internal/simtime"
)

// Property: bucketOf and bucketLow are mutually consistent at every bucket
// boundary — the bucket that claims a duration really does bound it.
func TestBucketBoundsConsistencyProperty(t *testing.T) {
	f := func(raw uint64) bool {
		d := simtime.Duration(raw % uint64(math.MaxInt64))
		i := bucketOf(d)
		if i < 0 || i > 127 {
			return false
		}
		if d >= simtime.Nanosecond && bucketLow(i) > d {
			return false
		}
		if i < 127 && bucketLow(i+1) <= d {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
	// Exact boundaries are the historically broken cases: check every
	// bucket's own lower bound maps back to that bucket. Buckets whose
	// bound saturates the picosecond range all share MaxInt64 and are
	// excluded — only the first of them can win the round trip.
	for i := 0; i < 127; i++ {
		low := bucketLow(i)
		if low >= bucketLow(i+1) {
			break
		}
		if got := bucketOf(low); got != i {
			t.Errorf("bucketOf(bucketLow(%d)=%v) = %d", i, low, got)
		}
	}
	if bucketLow(127) < 0 {
		t.Error("bucketLow must saturate, not wrap negative")
	}
}

func TestNodeTracerSpansAndRegistry(t *testing.T) {
	eng := simtime.NewEngine()
	tr := NewTracer()
	eng.Spawn("vh-main", func(p *simtime.Proc) {
		nt := tr.Node(0, "dmab", p)
		end := nt.Begin(PhaseOffload, "offload empty", 1)
		p.Sleep(6 * simtime.Microsecond)
		end()
		nt.Count("offloads", 1)
		nt.Observe("latency", 6*simtime.Microsecond)
		start := nt.Now()
		p.Sleep(200 * simtime.Nanosecond)
		nt.Since(PhasePoll, "poll-hit", 1, start)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("Spans = %d", len(spans))
	}
	s := spans[0]
	if s.Node != 0 || s.Backend != "dmab" || s.MsgID != 1 || s.Phase != PhaseOffload {
		t.Errorf("span = %+v", s)
	}
	if s.Tid != "vh-main" {
		t.Errorf("Tid = %q", s.Tid)
	}
	if s.Dur() != 6*simtime.Microsecond {
		t.Errorf("Dur = %v", s.Dur())
	}
	if spans[1].Dur() != 200*simtime.Nanosecond {
		t.Errorf("Since span dur = %v", spans[1].Dur())
	}
	reg := tr.Registry(0)
	if reg.Counter("offloads") != 1 {
		t.Error("counter not fed")
	}
	if reg.Hist("latency").Count() != 1 {
		t.Error("histogram not fed")
	}
	st := spanStat(reg, "offload empty")
	if st.Count != 1 || st.Total != 6*simtime.Microsecond || st.Min != 6*simtime.Microsecond || st.Phase != PhaseOffload {
		t.Errorf("SpanStat = %+v", st)
	}
	regs := tr.Registries()
	if len(regs) != 1 || regs[0].Node() != 0 || regs[0].Backend() != "dmab" {
		t.Errorf("Registries = %+v", regs)
	}
	var buf bytes.Buffer
	reg.Render(&buf)
	for _, want := range []string{"node 0 (dmab)", "offloads", "offload empty", "latency"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("registry render missing %q:\n%s", want, buf.String())
		}
	}
}

func TestNilNodeTracerIsSafe(t *testing.T) {
	var tr *Tracer
	nt := tr.Node(3, "x", nil)
	if nt != nil {
		t.Fatal("nil tracer should yield nil node handle")
	}
	nt.Begin(PhaseCall, "a", 0)()
	nt.Since(PhaseCall, "b", 0, 0)
	nt.Count("c", 1)
	nt.Observe("d", 1)
	if nt.Registry() != nil || nt.Tracer() != nil || nt.Now() != 0 {
		t.Error("nil node tracer should be inert")
	}
	if tr.Registry(0) != nil || tr.Registries() != nil {
		t.Error("nil tracer registries should be nil")
	}
	var reg *Registry
	reg.Count("x", 1)
	reg.Observe("y", 1)
	if reg.Counter("x") != 0 || reg.Hist("y") != nil || reg.SpanStats() != nil {
		t.Error("nil registry should be inert")
	}
}

func TestEmptySpanStatMinIsZero(t *testing.T) {
	var st SpanStat
	if st.Min != 0 || st.Mean() != 0 {
		t.Error("empty SpanStat must read as zero")
	}
}

// spanStat returns r's stats for the span name (zero-valued when unseen).
func spanStat(r *Registry, name string) SpanStat {
	for _, st := range r.SpanStats() {
		if st.Name == name {
			return st
		}
	}
	return SpanStat{Name: name}
}

func TestBreakdownWindowTilesExactly(t *testing.T) {
	us := func(x int64) simtime.Time { return simtime.Time(x) * simtime.Time(simtime.Microsecond) }
	spans := []Span{
		// Outer offload covering [0, 10); inner call [1, 3); innermost
		// pcie [2, 3); disjoint execute [5, 7); stray span outside window.
		{Name: "offload", Cat: "ham", Phase: PhaseOffload, Start: us(0), End: us(10)},
		{Name: "call", Cat: "ham", Phase: PhaseCall, Start: us(1), End: us(3)},
		{Name: "pcie", Cat: "pcie", Start: us(2), End: us(3)},
		{Name: "execute", Cat: "ham", Phase: PhaseExecute, Start: us(5), End: us(7)},
		{Name: "outside", Cat: "ham", Start: us(20), End: us(30)},
	}
	rows := BreakdownWindow(spans, us(0), us(10))
	total := simtime.Duration(0)
	byName := map[string]PhaseSlice{}
	for _, r := range rows {
		total += r.Total
		byName[r.Name] = r
	}
	if total != 10*simtime.Microsecond {
		t.Fatalf("rows must tile the window: total = %v", total)
	}
	if byName["offload"].Total != 6*simtime.Microsecond {
		t.Errorf("offload residual = %v, want 6us", byName["offload"].Total)
	}
	if byName["call"].Total != simtime.Microsecond {
		t.Errorf("call = %v, want 1us (pcie nested inside)", byName["call"].Total)
	}
	if byName["pcie"].Total != simtime.Microsecond {
		t.Errorf("pcie = %v", byName["pcie"].Total)
	}
	if byName["execute"].Total != 2*simtime.Microsecond {
		t.Errorf("execute = %v", byName["execute"].Total)
	}
	if _, ok := byName["outside"]; ok {
		t.Error("span outside window must not appear")
	}
	// Uncovered time shows up as IdleName.
	rows = BreakdownWindow(spans[1:2], us(0), us(10))
	byName = map[string]PhaseSlice{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	if byName[IdleName].Total != 8*simtime.Microsecond {
		t.Errorf("idle = %v, want 8us", byName[IdleName].Total)
	}
	if BreakdownWindow(spans, us(5), us(5)) != nil {
		t.Error("empty window must return nil")
	}
}

func TestChromeExportPerNodeTracks(t *testing.T) {
	eng := simtime.NewEngine()
	tr := NewTracer()
	eng.Spawn("vh-main", func(p *simtime.Proc) {
		host := tr.Node(0, "dmab", p)
		end := host.Begin(PhaseCall, "dmab-call", 7)
		p.Sleep(simtime.Microsecond)
		end()
		defer tr.Span(p, "dma", "priv-dma-write")()
	})
	eng.Spawn("ve0-core0", func(p *simtime.Proc) {
		ve := tr.Node(1, "dmab", p)
		end := ve.Begin(PhaseExecute, "execute", 7)
		p.Sleep(2 * simtime.Microsecond)
		end()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.ExportChrome(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`"process_name"`, `"node 0 (dmab)"`, `"node 1 (dmab)"`, `"infra"`,
		`"thread_name"`, `"vh-main"`, `"ve0-core0"`,
		`"phase":"call"`, `"msg":7`, `"ph":"X"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("chrome export missing %s:\n%s", want, out)
		}
	}
	// Valid JSON array.
	trimmed := strings.TrimSpace(out)
	if !strings.HasPrefix(trimmed, "[") || !strings.HasSuffix(trimmed, "]") {
		t.Error("export must be a JSON array of events")
	}
}
