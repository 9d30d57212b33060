package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"hamoffload/internal/trace"
	"hamoffload/machine"
)

var update = flag.Bool("update", false, "rewrite golden files")

// traceOffloads runs reps empty offloads over one protocol (DMA, or else
// VEO) with a span recorder of its own attached and writes the Chrome
// trace-event JSON to w: each machine numbers its nodes from 0, so two runs
// in one recorder would share pids and their process labels. In Perfetto
// the two exports show the structural difference between the protocols at
// a glance: the VEO protocol's offload is dominated by two veo_write_mem
// spans and a long veo_read_mem poll, the DMA protocol shows only thin
// user-DMA slivers on the VE worker's row.
func traceOffloads(reps int, dma bool, w io.Writer) error {
	rec := trace.NewTracer()
	world := traced(machine.World{DMA: dma}, rec)
	if _, err := emptyOffloads(world, 0, reps); err != nil {
		return err
	}
	return rec.ExportChrome(w)
}

// TestNilTracerKeepsFig9BitIdentical is the near-zero-cost guarantee: with a
// tracer attached the DMA protocol's simulated offload cost must be
// bit-identical to the untraced run, because instrumentation only records
// spans and never adds simulated time.
func TestNilTracerKeepsFig9BitIdentical(t *testing.T) {
	cfg := Fig9Config{Reps: 60}
	untraced, err := Fig9(machine.World{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.NewTracer()
	withSpans, err := Fig9(traced(machine.World{}, tr), cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain := untraced.HAMDMAUS
	if plain != withSpans.HAMDMAUS {
		t.Errorf("tracing changed the simulation: untraced %.6f µs, traced %.6f µs", plain, withSpans.HAMDMAUS)
	}
	if tr.Len() == 0 {
		t.Error("traced run recorded no spans")
	}
	// Guard against timing drift relative to the recorded EXPERIMENTS.md
	// value (5.93 µs per empty DMA-protocol offload).
	if math.Abs(plain-5.93) > 0.05 {
		t.Errorf("HAM-DMA empty offload = %.3f µs, want ≈5.93", plain)
	}
}

// TestBreakdownTilesEndToEnd is the Fig. 9 decomposition criterion: the
// phase rows must sum to the offload's end-to-end latency (they tile the
// window by construction). The split's bands against the paper are
// calibration anchors.
func TestBreakdownTilesEndToEnd(t *testing.T) {
	res, err := Breakdown(machine.World{DMA: true}, Fig9Config{})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, r := range res.Rows {
		sum += r.Total.Microseconds()
	}
	if res.TotalUS <= 0 || math.Abs(sum-res.TotalUS) > res.TotalUS*0.01 {
		t.Errorf("phase rows sum to %.4f µs, end-to-end is %.4f µs (>1%% off)", sum, res.TotalUS)
	}
	var buf bytes.Buffer
	RenderBreakdown(&buf, res)
	for _, want := range []string{"PCIe wire time", "framework time", "timeline"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("rendered breakdown missing %q", want)
		}
	}
}

// TestHostSpansSumToOffload mirrors the trace-validity acceptance check on
// the exported span set: for one empty HAM-DMA offload, the initiator-side
// encode + call + wait spans must sum to the end-to-end offload latency
// within 1% (the host path has no uninstrumented gaps).
func TestHostSpansSumToOffload(t *testing.T) {
	tr := trace.NewTracer()
	if _, err := emptyOffloads(traced(machine.World{DMA: true}, tr), 10, 30); err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	win, ok := lastOffloadSpan(spans)
	if !ok {
		t.Fatal("no offload span recorded")
	}
	var sub float64
	for _, s := range spans {
		if s.Node != 0 || s.MsgID < 0 {
			continue
		}
		if s.Start >= win.Start && s.End <= win.End &&
			(s.Phase == trace.PhaseEncode || s.Phase == trace.PhaseCall || s.Phase == trace.PhaseWait) {
			sub += s.Dur().Microseconds()
		}
	}
	total := win.Dur().Microseconds()
	if total <= 0 || math.Abs(sub-total) > total*0.01 {
		t.Errorf("encode+call+wait = %.4f µs, offload = %.4f µs (>1%% apart)", sub, total)
	}
}

// TestChromeExportGolden pins the Chrome trace-event export of each
// protocol byte-for-byte: the simulation is deterministic, so the exported
// JSON must be stable. Regenerate with `go test ./bench -run Golden -update`
// after intentional format or timing changes.
func TestChromeExportGolden(t *testing.T) {
	for _, dma := range []bool{false, true} {
		name := map[bool]string{false: "veo", true: "dma"}[dma]
		var buf bytes.Buffer
		if err := traceOffloads(2, dma, &buf); err != nil {
			t.Fatal(err)
		}
		var events []map[string]any
		if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
			t.Fatalf("%s: export is not a JSON array: %v", name, err)
		}
		if len(events) == 0 {
			t.Fatalf("%s: export is empty", name)
		}
		golden := filepath.Join("testdata", "chrome_trace_"+name+".golden.json")
		if *update {
			if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("%v (run with -update to create)", err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s: export drifted from golden file (%d vs %d bytes); run with -update if intentional",
				name, buf.Len(), len(want))
		}
	}
}
