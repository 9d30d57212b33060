package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"hamoffload/internal/simtime"
	"hamoffload/internal/trace"
	"hamoffload/machine"
)

// BreakdownResult decomposes one empty synchronous offload into its
// lifecycle phases. It is the simulated counterpart of the paper's Fig. 9
// discussion, which splits the DMA protocol's 6.1 µs into roughly 1.2 µs of
// PCIe wire crossings and ~5 µs of framework time.
type BreakdownResult struct {
	Protocol string // "DMA" or "VEO"

	TotalUS     float64 // end-to-end latency of the analysed offload
	PCIeUS      float64 // time attributed to PCIe wire crossings (cat "pcie")
	FrameworkUS float64 // everything else: framework code paths + residual

	Rows       []trace.PhaseSlice // innermost-span attribution, tiles the window
	Spans      []trace.Span       // recorded spans overlapping the window
	Start, End simtime.Time       // the analysed offload window
	Tracer     *trace.Tracer      // w's tracer, or the fresh one the run used
}

// Breakdown runs the configured warm-ups plus one analysed empty sync
// offload on a machine of w (over w's protocol) with tracing attached, then
// attributes every picosecond of the final offload's window to the innermost
// recorded span covering it. The returned rows tile the window exactly, so
// their totals sum to the end-to-end latency by construction.
func Breakdown(w machine.World, cfg Fig9Config) (BreakdownResult, error) {
	cfg.fill()
	res := BreakdownResult{Protocol: "VEO", Tracer: trace.NewTracer()}
	if w.DMA {
		res.Protocol = "DMA"
	}
	if w.Timing != nil && w.Timing.Tracer != nil {
		res.Tracer = w.Timing.Tracer
	}
	if _, err := emptyOffloads(traced(w, res.Tracer), cfg.Warmup, 1); err != nil {
		return res, err
	}

	spans := res.Tracer.Spans()
	win, ok := lastOffloadSpan(spans)
	if !ok {
		return res, fmt.Errorf("bench: no offload span recorded")
	}
	res.Start, res.End = win.Start, win.End
	res.TotalUS = win.Dur().Microseconds()
	res.Rows = trace.BreakdownWindow(spans, win.Start, win.End)
	for _, r := range res.Rows {
		if r.Cat == "pcie" {
			res.PCIeUS += r.Total.Microseconds()
		}
	}
	res.FrameworkUS = res.TotalUS - res.PCIeUS
	for _, s := range spans {
		if s.End > win.Start && s.Start < win.End {
			res.Spans = append(res.Spans, s)
		}
	}
	return res, nil
}

// lastOffloadSpan finds the initiator-side lifecycle span of the last
// application offload in the trace, skipping the runtime's own messages
// (the ham.rt.terminate sent during Finalize would otherwise win).
func lastOffloadSpan(spans []trace.Span) (trace.Span, bool) {
	var win trace.Span
	found := false
	for _, s := range spans {
		if s.Phase == trace.PhaseOffload && s.Node == 0 &&
			!strings.Contains(s.Name, "ham.rt.") {
			if !found || s.Start >= win.Start {
				win, found = s, true
			}
		}
	}
	return win, found
}

// RenderBreakdown prints the phase table, the PCIe/framework split the paper
// quotes for Fig. 9, and an ASCII timeline of the analysed offload.
func RenderBreakdown(w io.Writer, r BreakdownResult) {
	fmt.Fprintf(w, "Offload phase decomposition — %s protocol, one empty sync offload\n", r.Protocol)
	fmt.Fprintf(w, "%-34s %10s %7s\n", "phase", "µs", "%")
	var sum float64
	for _, row := range r.Rows {
		us := row.Total.Microseconds()
		sum += us
		fmt.Fprintf(w, "%-34s %10.3f %6.1f%%\n", rowLabel(row), us, 100*us/r.TotalUS)
	}
	fmt.Fprintf(w, "%-34s %10.3f %6.1f%%\n", "end-to-end", sum, 100*sum/r.TotalUS)
	fmt.Fprintln(w)
	fmt.Fprintf(w, "PCIe wire time : %6.2f µs\n", r.PCIeUS)
	fmt.Fprintf(w, "framework time : %6.2f µs\n", r.FrameworkUS)
	if r.Protocol == "DMA" {
		fmt.Fprintf(w, "paper (Fig. 9) : 1.2 µs PCIe + ~5 µs framework = 6.1 µs total\n")
	}
	fmt.Fprintln(w)
	renderTimeline(w, r)
}

func rowLabel(row trace.PhaseSlice) string {
	if row.Cat == "pcie" {
		return row.Name + "  [pcie]"
	}
	return row.Name
}

// renderTimeline draws the window's spans as a scaled ASCII gantt chart, one
// row per span, ordered by start time; outer spans come first, so nesting
// reads top-down.
func renderTimeline(w io.Writer, r BreakdownResult) {
	const width = 64
	window := r.End.Sub(r.Start)
	if window <= 0 || len(r.Spans) == 0 {
		return
	}
	spans := append([]trace.Span(nil), r.Spans...)
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].Dur() > spans[j].Dur()
	})
	fmt.Fprintf(w, "timeline (window %.3f µs, 1 column ≈ %.0f ns)\n",
		window.Microseconds(), window.Microseconds()*1000/width)
	col := func(t simtime.Time) int {
		c := int(int64(t.Sub(r.Start)) * width / int64(window))
		if c < 0 {
			c = 0
		}
		if c > width {
			c = width
		}
		return c
	}
	for _, s := range spans {
		lo, hi := col(s.Start), col(s.End)
		if hi <= lo {
			hi = lo + 1
			if hi > width {
				lo, hi = width-1, width
			}
		}
		bar := strings.Repeat(" ", lo) + strings.Repeat("=", hi-lo) +
			strings.Repeat(" ", width-hi)
		fmt.Fprintf(w, "%-12s %-24s |%s|\n", trackLabel(s), s.Name, bar)
	}
}

func trackLabel(s trace.Span) string {
	if s.Node == trace.NodeInfra {
		return s.Tid
	}
	return fmt.Sprintf("node%d", s.Node)
}
