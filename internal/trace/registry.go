package trace

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"hamoffload/internal/simtime"
)

// SpanStat aggregates all closed spans sharing one name on one node.
type SpanStat struct {
	Name  string
	Phase Phase
	Count int64
	Total simtime.Duration
	Min   simtime.Duration // 0 when Count == 0
	Max   simtime.Duration
}

// Mean returns the average span duration (0 when empty).
func (s SpanStat) Mean() simtime.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Total / simtime.Duration(s.Count)
}

// Registry aggregates one node's observability state: named counters, named
// latency histograms, per-span-name duration stats fed automatically as
// spans close, and named time series (see Tracer.Gauge). It is safe for
// concurrent use; histograms handed out by Hist must only be read once
// recording has quiesced.
type Registry struct {
	mu       sync.Mutex
	node     int
	backend  string
	interval simtime.Duration // initial bin width of new series
	counters map[string]int64
	hists    map[string]*Histogram
	spans    map[string]*SpanStat
	series   map[string]*Series
}

func newRegistry(node int, backend string, interval simtime.Duration) *Registry {
	return &Registry{
		node:     node,
		backend:  backend,
		interval: interval,
		counters: map[string]int64{},
		hists:    map[string]*Histogram{},
		spans:    map[string]*SpanStat{},
		series:   map[string]*Series{},
	}
}

// Node returns the HAM node id this registry belongs to (NodeInfra for
// shared infrastructure).
func (r *Registry) Node() int {
	if r == nil {
		return NodeInfra
	}
	return r.node
}

// Backend returns the backend short name first seen for this node.
func (r *Registry) Backend() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.backend
}

// Count bumps a named counter by delta.
func (r *Registry) Count(name string, delta int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

// Counter reads a counter (0 when never touched or on a nil registry).
func (r *Registry) Counter(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// CounterNames returns all counter names, sorted.
func (r *Registry) CounterNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Observe adds one duration to a named histogram, creating it on demand.
func (r *Registry) Observe(name string, d simtime.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(name)
		r.hists[name] = h
	}
	h.Observe(d)
	r.mu.Unlock()
}

// Hist returns a named histogram, creating it on demand. The returned
// histogram is live; read it only after recording has quiesced.
func (r *Registry) Hist(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(name)
		r.hists[name] = h
	}
	return h
}

// HistNames returns all histogram names, sorted.
func (r *Registry) HistNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.hists))
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// observeSpan folds one closed span into the per-name stats.
func (r *Registry) observeSpan(s Span) {
	d := s.Dur()
	if d < 0 {
		d = 0
	}
	r.mu.Lock()
	st, ok := r.spans[s.Name]
	if !ok {
		st = &SpanStat{Name: s.Name, Phase: s.Phase}
		r.spans[s.Name] = st
	}
	st.Count++
	st.Total += d
	if st.Count == 1 || d < st.Min {
		st.Min = d
	}
	if d > st.Max {
		st.Max = d
	}
	r.mu.Unlock()
}

// SpanStats returns a snapshot of the per-span-name stats, sorted by name.
func (r *Registry) SpanStats() []SpanStat {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]SpanStat, 0, len(r.spans))
	for _, st := range r.spans {
		out = append(out, *st)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Render writes a human-readable dump: counters, span stats, histograms.
// Series have their own renderer, Tracer.RenderSeries.
func (r *Registry) Render(w io.Writer) {
	if r == nil {
		return
	}
	fmt.Fprintf(w, "node %d (%s)\n", r.Node(), r.Backend())
	for _, n := range r.CounterNames() {
		fmt.Fprintf(w, "  %-30s %12d\n", n, r.Counter(n))
	}
	for _, st := range r.SpanStats() {
		fmt.Fprintf(w, "  span %-25s n=%-7d mean=%-12v min=%-12v max=%v\n",
			st.Name, st.Count, st.Mean(), st.Min, st.Max)
	}
	for _, n := range r.HistNames() {
		r.Hist(n).Render(w)
	}
}

func sortRegistries(rs []*Registry) {
	sort.Slice(rs, func(i, j int) bool { return rs[i].node < rs[j].node })
}
