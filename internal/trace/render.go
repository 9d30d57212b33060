package trace

import (
	"fmt"
	"io"
	"maps"
	"slices"
)

// sparkRamp maps a bin's normalised value to a character; index 0 is "no
// activity". ASCII-only so the output is stable across terminals and diffs.
const sparkRamp = " .:-=+*#%@"

// sparkline renders one series' ring as a fixed-alphabet timeline. Gauges
// plot the end-of-bin level with empty bins inheriting the previous level;
// counters plot the per-bin sum with empty bins at zero.
func sparkline(s *Series) (line string, peak int64) {
	bins := s.Bins()
	vals := make([]int64, len(bins))
	var carry int64
	for i, b := range bins {
		switch {
		case b.Count == 0 && s.Kind() == Gauge:
			vals[i] = carry
		case b.Count == 0:
			vals[i] = 0
		case s.Kind() == Gauge:
			vals[i] = b.Last
			carry = b.Last
		default:
			vals[i] = b.Sum
		}
		if vals[i] > peak {
			peak = vals[i]
		}
	}
	out := make([]byte, len(vals))
	for i, v := range vals {
		idx := 0
		if peak > 0 && v > 0 {
			idx = 1 + int(int64(len(sparkRamp)-2)*v/peak)
			if idx >= len(sparkRamp) {
				idx = len(sparkRamp) - 1
			}
		}
		out[i] = sparkRamp[idx]
	}
	return string(out), peak
}

// RenderSeries writes every series of the tracer as an ASCII sparkline
// timeline, sorted by (node, name). Deterministic for deterministic runs.
func (t *Tracer) RenderSeries(w io.Writer) {
	series := t.Series()
	if len(series) == 0 {
		fmt.Fprintln(w, "(no series recorded)")
		return
	}
	fmt.Fprintln(w, "Time series (simulated clock; one column per bin)")
	for _, s := range series {
		line, peak := sparkline(s)
		t := s.Total()
		fmt.Fprintf(w, "  node %d %-18s %-7s bin=%-8v peak=%-8d |%s|\n",
			s.Node(), s.Name(), s.Kind().String(), s.Interval(), peak, line)
		fmt.Fprintf(w, "         %-18s start=%v samples=%d sum=%d min=%d max=%d last=%d\n",
			"", s.Start(), t.Count, t.Sum, t.Min, t.Max, t.Last)
	}
}

// RenderSLO writes the SLO accounting table: per-window latency quantiles
// and burn rates plus the overall row.
func (t *Tracer) RenderSLO(w io.Writer) {
	r := t.SLOReport()
	fmt.Fprintf(w, "SLO: target=%v budget=%.2f%% window=%v\n",
		r.Target, r.Budget*100, r.Window)
	if r.N == 0 {
		fmt.Fprintln(w, "  (no offloads observed)")
		return
	}
	fmt.Fprintf(w, "  %-12s %6s %12s %12s %12s %12s %6s %8s\n",
		"window", "n", "p50", "p99", "p99.9", "max", "viol", "burn")
	// Window starts print as offsets from the first window: absolute
	// simulated times are dominated by machine boot, which would render
	// every label identically at the default precision.
	for _, ws := range r.Windows {
		fmt.Fprintf(w, "  +%-11v %6d %12v %12v %12v %12v %6d %7.2fx\n",
			ws.Start.Sub(r.Windows[0].Start), ws.N, ws.P50, ws.P99, ws.P999, ws.Max,
			ws.Violations, ws.BurnRate)
	}
	fmt.Fprintf(w, "  %-12s %6d %12v %12v %12v %12v %6d %7.2fx\n",
		"overall", r.N, r.P50, r.P99, r.P999, r.Max, r.Violations, r.BurnRate)
	fmt.Fprintf(w, "  mean=%v violation-rate=%.3f%%\n", r.Mean, r.ViolationRate*100)
}

// RenderFlows writes the causal-log summary: event counts by kind, sorted
// by kind name.
func (t *Tracer) RenderFlows(w io.Writer) {
	counts := map[FlowKind]int64{}
	for _, e := range t.FlowEvents() {
		counts[e.Kind]++
	}
	if len(counts) == 0 {
		return
	}
	fmt.Fprint(w, "Causal flow events:")
	for _, k := range slices.Sorted(maps.Keys(counts)) {
		fmt.Fprintf(w, " %s=%d", k, counts[k])
	}
	fmt.Fprintln(w)
}

// Render writes the full telemetry dump: series, SLO table, flow summary.
func (t *Tracer) Render(w io.Writer) {
	if t == nil {
		fmt.Fprintln(w, "(telemetry disabled)")
		return
	}
	t.RenderSeries(w)
	fmt.Fprintln(w)
	t.RenderSLO(w)
	t.RenderFlows(w)
}
