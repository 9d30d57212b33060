package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"hamoffload/internal/simtime"
)

func flowFixture() *Tracer {
	c := New(Config{Flows: true})
	us := func(n int64) simtime.Time { return simtime.Time(n * int64(simtime.Microsecond)) }
	a, b := c.NextTraceID(), c.NextTraceID()
	c.Event(a, us(0), 0, FlowIssue, "work")
	c.Event(a, us(1), 1, FlowPlace, "least-inflight")
	c.Event(a, us(2), 0, FlowFlush, "batch")
	c.Event(a, us(5), 1, FlowExecute, "work")
	c.Event(a, us(9), 0, FlowSettle, "")
	c.Event(b, us(3), 0, FlowIssue, "work")
	c.Event(b, us(4), 0, FlowRetry, "work")
	c.Event(b, us(7), 2, FlowExecute, "work")
	c.Event(b, us(8), 0, FlowSettle, "")
	return c
}

func TestExportChromeFlows(t *testing.T) {
	c := flowFixture()
	var buf bytes.Buffer
	if err := c.ExportChromeFlows(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	phases := map[string]int{}
	for _, e := range events {
		phases[e["ph"].(string)]++
	}
	// 9 slices, 3 node metadata records, 9 flow arrows (5 + 4, all chained).
	if phases["X"] != 9 {
		t.Fatalf("slices %d, want 9", phases["X"])
	}
	if phases["M"] != 3 {
		t.Fatalf("metadata %d, want 3 (nodes 0,1,2)", phases["M"])
	}
	if phases["s"] != 2 || phases["f"] != 2 {
		t.Fatalf("flow starts/finishes %d/%d, want 2/2", phases["s"], phases["f"])
	}
	if phases["t"] != 5 {
		t.Fatalf("flow steps %d, want 5", phases["t"])
	}
	// Determinism: a second export is byte-identical.
	var buf2 bytes.Buffer
	if err := c.ExportChromeFlows(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("ExportChromeFlows is not deterministic")
	}
}

func TestExportFolded(t *testing.T) {
	c := flowFixture()
	var buf bytes.Buffer
	if err := c.ExportFolded(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Chain a yields 4 stack prefixes, chain b yields 3, and the two share
	// the "issue work" root: 6 distinct stacks.
	if len(lines) != 6 {
		t.Fatalf("folded lines %d, want 6:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "issue work ") {
		t.Fatalf("folded output not sorted, first line %q", lines[0])
	}
	// Trace a's full chain: 4µs gap between execute and settle.
	want := "issue work;place least-inflight;flush batch;execute work 4000000"
	if !strings.Contains(out, want+"\n") {
		t.Fatalf("missing stack %q in:\n%s", want, out)
	}
	// Weights are nonnegative simulated picoseconds.
	for _, ln := range lines {
		if strings.HasSuffix(ln, " -") || strings.Contains(ln, " -") {
			t.Fatalf("negative weight in %q", ln)
		}
	}
	var buf2 bytes.Buffer
	if err := c.ExportFolded(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("ExportFolded is not deterministic")
	}
}

// TestFlowKindCounts: the flow summary tallies the causal log by kind,
// sorted by kind name.
func TestFlowKindCounts(t *testing.T) {
	var buf bytes.Buffer
	flowFixture().RenderFlows(&buf)
	want := "Causal flow events: execute=2 flush=1 issue=2 place=1 retry=1 settle=2\n"
	if buf.String() != want {
		t.Fatalf("RenderFlows = %q, want %q", buf.String(), want)
	}
}

func TestFlowsDisabled(t *testing.T) {
	c := New(Config{}) // Flows off
	c.Event(c.NextTraceID(), 0, 0, FlowIssue, "x")
	if c.FlowsEnabled() {
		t.Fatal("flows should be off by default")
	}
	if evs := c.FlowEvents(); evs != nil {
		t.Fatalf("events recorded with flows off: %v", evs)
	}
	var buf bytes.Buffer
	if err := c.ExportChromeFlows(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "[]\n" {
		t.Fatalf("disabled chrome export %q, want empty array", buf.String())
	}
	buf.Reset()
	if err := c.ExportFolded(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("disabled folded export %q, want empty", buf.String())
	}
}
