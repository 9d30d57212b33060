package trace

import (
	"sort"

	"hamoffload/internal/simtime"
)

// Standard series names recorded by the runtime. Bench and render code keys
// off these; user code may record additional series freely.
const (
	SeriesInflight  = "offload.inflight" // gauge: in-flight offloads per target node
	SeriesQueue     = "batch.queue"      // gauge: queued messages per target node
	SeriesOccupancy = "batch.occupancy"  // counter: messages per shipped frame
	SeriesRetries   = "offload.retries"  // counter: retransmissions per target node
	SeriesBytes     = "wire.bytes"       // counter: wire bytes shipped per target node
	SeriesHedges    = "offload.hedges"   // counter: hedged re-issues per hedge-target node

	// Serving-gateway series (see the gateway package): queue depths and
	// steals are recorded per target VE; admission counters are gateway-wide
	// and recorded on the host node.
	SeriesGatewayQueue  = "gateway.queue"   // gauge: queued requests per VE
	SeriesGatewaySteals = "gateway.steals"  // counter: requests stolen into an idling VE
	SeriesGatewayAdmit  = "gateway.admits"  // counter: admitted requests (host node)
	SeriesGatewayReject = "gateway.rejects" // counter: rejected requests (host node)
)

// maxBins caps each series' ring buffer (even, so pairs merge cleanly).
const maxBins = 128

// Gauge records an instantaneous level — in-flight offloads, queue depth —
// in node's series name at simulated time now.
func (t *Tracer) Gauge(node int, name string, now simtime.Time, v int64) {
	if t == nil {
		return
	}
	t.Registry(node).sample(name, Gauge, now, v)
}

// Add records a rate-counter increment — retries, bytes moved — in node's
// series name at simulated time now.
func (t *Tracer) Add(node int, name string, now simtime.Time, delta int64) {
	if t == nil {
		return
	}
	t.Registry(node).sample(name, Counter, now, delta)
}

// Series returns snapshots of every recorded series, sorted by (node, name)
// so iteration order is deterministic regardless of recording interleaving.
func (t *Tracer) Series() []*Series {
	var out []*Series
	for _, r := range t.Registries() {
		out = append(out, r.seriesSnapshot()...)
	}
	return out
}

// sample folds one sample into the registry's series name, creating it with
// kind on first use.
func (r *Registry) sample(name string, kind Kind, now simtime.Time, v int64) {
	r.mu.Lock()
	s, ok := r.series[name]
	if !ok {
		s = newSeries(name, r.node, kind, r.interval, maxBins)
		r.series[name] = s
	}
	s.record(now, v)
	r.mu.Unlock()
}

// seriesSnapshot copies the registry's series, sorted by name.
func (r *Registry) seriesSnapshot() []*Series {
	r.mu.Lock()
	out := make([]*Series, 0, len(r.series))
	for _, s := range r.series {
		out = append(out, s.clone())
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Kind distinguishes the two series semantics.
type Kind uint8

const (
	// Gauge series record instantaneous levels; a bin's Last is the level at
	// the end of the bin, and empty bins inherit the previous level.
	Gauge Kind = iota
	// Counter series record increments; a bin's Sum is the amount added
	// during the bin, and empty bins are zero.
	Counter
)

// String returns the kind's render label.
func (k Kind) String() string {
	if k == Counter {
		return "counter"
	}
	return "gauge"
}

// Bin aggregates all samples of one fixed-interval time slot. A Bin with
// Count == 0 is empty and its other fields are meaningless.
type Bin struct {
	Count int64 // samples recorded in this slot
	Sum   int64 // sum of sample values (counter: total increment)
	Min   int64 // smallest sample value
	Max   int64 // largest sample value
	Last  int64 // final sample value (gauge: level at end of slot)
}

// mergeBins combines two adjacent bins, ignoring empty operands.
func mergeBins(a, b Bin) Bin {
	if a.Count == 0 {
		return b
	}
	if b.Count == 0 {
		return a
	}
	out := Bin{
		Count: a.Count + b.Count,
		Sum:   a.Sum + b.Sum,
		Min:   a.Min,
		Max:   a.Max,
		Last:  b.Last,
	}
	if b.Min < out.Min {
		out.Min = b.Min
	}
	if b.Max > out.Max {
		out.Max = b.Max
	}
	return out
}

// Series is one fixed-interval time series in a downsampling ring buffer.
// Bins are aligned to the absolute simulated-time grid (bin i covers
// [i*interval, (i+1)*interval)), so two series recorded with identical
// samples are identical bins regardless of when each first saw data — the
// property the downsampling determinism test pins down.
//
// When appending a sample would exceed maxBins, adjacent bin pairs merge on
// even grid boundaries and the interval doubles. Merging preserves every
// total (Count, Sum, Min, Max, Last), so downsampling is lossless in the
// aggregate: only intra-bin resolution is given up.
type Series struct {
	name     string
	node     int
	kind     Kind
	interval simtime.Duration
	firstBin int64 // absolute grid index of bins[0]
	bins     []Bin
	maxBins  int
	total    Bin // all-time aggregate, unaffected by downsampling
}

func newSeries(name string, node int, kind Kind, interval simtime.Duration, maxBins int) *Series {
	return &Series{name: name, node: node, kind: kind, interval: interval, maxBins: maxBins}
}

// Name returns the series name.
func (s *Series) Name() string { return s.name }

// Node returns the node the series describes.
func (s *Series) Node() int { return s.node }

// Kind returns the series semantics.
func (s *Series) Kind() Kind { return s.kind }

// Interval returns the current bin width (doubles as the series downsamples).
func (s *Series) Interval() simtime.Duration { return s.interval }

// Start returns the simulated time of the first bin's left edge.
func (s *Series) Start() simtime.Time {
	return simtime.Time(s.firstBin * int64(s.interval))
}

// Bins returns the ring contents oldest-first. The slice is the series' own
// storage on a live series and a private copy on snapshots from
// Tracer.Series.
func (s *Series) Bins() []Bin { return s.bins }

// Total returns the all-time aggregate over every sample ever recorded.
func (s *Series) Total() Bin { return s.total }

func (s *Series) clone() *Series {
	c := *s
	c.bins = append([]Bin(nil), s.bins...)
	return &c
}

// record folds one sample into the grid bin covering now.
func (s *Series) record(now simtime.Time, v int64) {
	if now < 0 {
		now = 0
	}
	if len(s.bins) == 0 {
		s.firstBin = int64(now) / int64(s.interval)
		s.bins = append(s.bins, Bin{})
	}
	for {
		idx := int64(now) / int64(s.interval)
		last := s.firstBin + int64(len(s.bins)) - 1
		if idx < last {
			// Samples arrive in nondecreasing simulated time per series; a
			// stale stamp (clockless recording) clamps into the newest bin.
			idx = last
		}
		if need := idx - last; int64(len(s.bins))+need > int64(s.maxBins) {
			// Appending the gap would overflow the ring: halve resolution
			// and retry at the coarser grid (the gap halves with it).
			s.downsample()
			continue
		}
		for last < idx {
			s.bins = append(s.bins, Bin{})
			last++
		}
		sample := Bin{Count: 1, Sum: v, Min: v, Max: v, Last: v}
		s.bins[idx-s.firstBin] = mergeBins(s.bins[idx-s.firstBin], sample)
		s.total = mergeBins(s.total, sample)
		return
	}
}

// downsample halves the ring's resolution: pairs aligned to even grid
// indices merge and the interval doubles. Alignment to the absolute grid
// (not the ring start) keeps downsampling deterministic: the merged layout
// depends only on the samples, never on when the ring happened to fill.
func (s *Series) downsample() {
	if s.firstBin%2 != 0 {
		s.bins = append([]Bin{{}}, s.bins...)
		s.firstBin--
	}
	merged := make([]Bin, 0, (len(s.bins)+1)/2)
	for i := 0; i < len(s.bins); i += 2 {
		if i+1 < len(s.bins) {
			merged = append(merged, mergeBins(s.bins[i], s.bins[i+1]))
		} else {
			merged = append(merged, s.bins[i])
		}
	}
	s.bins = merged
	s.firstBin /= 2
	s.interval *= 2
}
