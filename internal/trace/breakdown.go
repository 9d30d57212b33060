package trace

import (
	"slices"

	"hamoffload/internal/simtime"
)

// PhaseSlice is one row of a latency decomposition: the total time within
// an analysis window attributed to one span name.
type PhaseSlice struct {
	Name  string
	Cat   string
	Phase Phase
	Total simtime.Duration
	Count int // distinct attributed intervals
}

// IdleName labels window time covered by no recorded span.
const IdleName = "(uninstrumented)"

// BreakdownWindow attributes every instant of [start, end) to exactly one
// recorded span — the innermost span covering it, across all nodes and
// tracks (an offload is sequential in simulated time, so mixing host and
// target spans yields the end-to-end critical path). "Innermost" means the
// latest Start, breaking ties by the earliest End and then by recording
// order. Instants covered by no span are attributed to IdleName. The
// returned slices therefore tile the window: their totals sum exactly to
// end-start. Rows appear in order of first attribution.
func BreakdownWindow(spans []Span, start, end simtime.Time) []PhaseSlice {
	if end <= start {
		return nil
	}
	// Clip to the window, drop non-overlapping spans.
	type clipped struct {
		Span
		idx int
	}
	var in []clipped
	for i, s := range spans {
		if s.End <= start || s.Start >= end {
			continue
		}
		c := clipped{Span: s, idx: i}
		c.Start, c.End = max(c.Start, start), min(c.End, end)
		in = append(in, c)
	}
	// Elementary interval boundaries.
	bounds := make([]simtime.Time, 0, 2*len(in)+2)
	bounds = append(bounds, start, end)
	for _, c := range in {
		bounds = append(bounds, c.Start, c.End)
	}
	slices.Sort(bounds)
	uniq := slices.Compact(bounds)
	// Attribute each elementary interval to its innermost covering span.
	rows := map[string]*PhaseSlice{}
	var order []string
	last := map[string]simtime.Time{} // end of the previous interval per row
	for i := 0; i+1 < len(uniq); i++ {
		lo, hi := uniq[i], uniq[i+1]
		var win *clipped
		for j := range in {
			c := &in[j]
			if c.Start > lo || c.End < hi {
				continue
			}
			if win == nil ||
				c.Span.Start > win.Span.Start ||
				(c.Span.Start == win.Span.Start && (c.Span.End < win.Span.End ||
					(c.Span.End == win.Span.End && c.idx > win.idx))) {
				win = c
			}
		}
		name, cat, ph := IdleName, "", Phase("")
		if win != nil {
			name, cat, ph = win.Name, win.Cat, win.Phase
		}
		row, ok := rows[name]
		if !ok {
			row = &PhaseSlice{Name: name, Cat: cat, Phase: ph}
			rows[name] = row
			order = append(order, name)
		}
		row.Total += hi.Sub(lo)
		if last[name] != lo {
			row.Count++
		}
		last[name] = hi
	}
	out := make([]PhaseSlice, 0, len(order))
	for _, n := range order {
		out = append(out, *rows[n])
	}
	return out
}
