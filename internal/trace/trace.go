// Package trace is the observability layer of the simulation and the
// benchmark harness, behind one handle, *Tracer (nil = off):
//
//   - lifecycle spans on the simulated clock, exportable as Chrome trace
//     events and decomposable into per-phase breakdowns;
//   - one Registry per node holding named counters, log-scaled latency
//     histograms (exact min/max/mean, quantile estimates), per-span-name
//     stats and fixed-interval time series (gauges and rate counters) in
//     ring buffers that downsample by pair-merging, so a series covers an
//     arbitrarily long run in bounded memory without losing totals;
//   - a windowed SLO tracker computing rolling p50/p99/p99.9 offload
//     latency and violation (burn-rate) accounting against a target;
//   - with Config.Flows, causal offload flows: a deterministic 64-bit trace
//     ID, carried beside each wire message by the transports (Tracer.Swap),
//     links issue, placement, batch flush, retry, execute and settle events
//     of one offload into one record, exportable as Chrome flow events or
//     folded flamegraph stacks.
//
// Everything is stamped with simulated time, so output is reproducible
// bit-for-bit. Recording is host-side bookkeeping only: it takes no
// simulated time and adds no wire bytes, flows included.
package trace

import (
	"fmt"
	"io"
	"math"
	"strings"

	"hamoffload/internal/simtime"
)

// Histogram accumulates durations in half-power-of-two buckets between 1 ns
// and ~17 s, with exact extreme values and sums.
type Histogram struct {
	name    string
	count   int64
	sum     simtime.Duration
	min     simtime.Duration
	max     simtime.Duration
	buckets [128]int64
}

// NewHistogram returns an empty histogram.
func NewHistogram(name string) *Histogram {
	return &Histogram{name: name, min: math.MaxInt64}
}

// bucketOf maps a duration to a bucket index: 2 buckets per octave starting
// at 1 ns. It is exactly consistent with bucketLow — for every d >= 1 ns,
// bucketLow(bucketOf(d)) <= d, and d < bucketLow(bucketOf(d)+1) unless the
// top bucket caught it. That invariant is the definition: the bucket is the
// largest i with bucketLow(i) <= d, found by binary search over the bounds
// tabulated once, with no float arithmetic per observation.
func bucketOf(d simtime.Duration) int {
	if d < simtime.Nanosecond {
		return 0
	}
	lo, hi := 0, len(bucketLows) // bucketLows[lo] <= d < bucketLows[hi]
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if bucketLows[mid] <= d {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// bucketLows[i] is bucketLow(i).
var bucketLows = func() (t [128]simtime.Duration) {
	for i := range t {
		t[i] = bucketLow(i)
	}
	return t
}()

// bucketLow returns the lower bound of bucket i, saturating at MaxInt64:
// buckets past ~2^53 ns exceed the picosecond range, and the naive float
// conversion used to wrap to a negative duration.
func bucketLow(i int) simtime.Duration {
	v := math.Pow(2, float64(i)/2) * float64(simtime.Nanosecond)
	if v >= float64(math.MaxInt64) {
		return math.MaxInt64
	}
	return simtime.Duration(v)
}

// Bucket returns the index of the bucket d falls in, for ObserveIn.
func Bucket(d simtime.Duration) int { return bucketOf(d) }

// Observe records one duration.
func (h *Histogram) Observe(d simtime.Duration) { h.ObserveIn(Bucket(d), d) }

// ObserveIn is Observe for a caller that already holds bucket = Bucket(d),
// so one observation feeding several histograms is bucketed once.
func (h *Histogram) ObserveIn(bucket int, d simtime.Duration) {
	if d < 0 {
		d = 0
	}
	h.count++
	h.sum += d
	if d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.buckets[bucket]++
}

// Merge folds o's observations into h. Bucket layouts are identical by
// construction, so merging loses nothing beyond what bucketing already did;
// the SLO tracker uses it to coarsen adjacent accounting windows.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.count == 0 {
		return
	}
	h.count += o.count
	h.sum += o.sum
	if o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	for i, c := range o.buckets {
		h.buckets[i] += c
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count }

// Min returns the smallest observation (0 when empty).
func (h *Histogram) Min() simtime.Duration {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation.
func (h *Histogram) Max() simtime.Duration { return h.max }

// Mean returns the average observation.
func (h *Histogram) Mean() simtime.Duration {
	if h.count == 0 {
		return 0
	}
	return h.sum / simtime.Duration(h.count)
}

// Quantile returns an estimate of the q-quantile (0 <= q <= 1), resolved to
// bucket granularity and clamped to the exact min/max.
func (h *Histogram) Quantile(q float64) simtime.Duration {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 {
		return h.Max()
	}
	rank := int64(q * float64(h.count))
	var cum int64
	for i, c := range h.buckets {
		cum += c
		if cum > rank {
			est := bucketLow(i)
			if est < h.min {
				est = h.min
			}
			if est > h.max {
				est = h.max
			}
			return est
		}
	}
	return h.max
}

// Render writes a human-readable summary plus a bar for every non-empty
// bucket.
func (h *Histogram) Render(w io.Writer) {
	fmt.Fprintf(w, "%s: n=%d min=%v p50=%v p99=%v max=%v mean=%v\n",
		h.name, h.count, h.Min(), h.Quantile(0.5), h.Quantile(0.99), h.Max(), h.Mean())
	if h.count == 0 {
		return
	}
	var peak int64
	for _, c := range h.buckets {
		if c > peak {
			peak = c
		}
	}
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		bar := int(float64(c) / float64(peak) * 40)
		if bar < 1 {
			bar = 1
		}
		fmt.Fprintf(w, "  >=%-10v %8d |%s\n", bucketLow(i), c, strings.Repeat("#", bar))
	}
}
