// Package simtime provides a deterministic, cooperative discrete-event
// simulation (DES) engine.
//
// A simulation consists of an Engine and a set of processes (Proc). Exactly
// one process runs at any moment; processes hand control back to the engine
// whenever they block (Sleep, Event.Wait, Proc.Poll, Semaphore.Acquire). The
// engine advances a virtual clock from event to event, so simulated time is
// completely decoupled from wall-clock time and every run of the same program
// is bit-for-bit reproducible.
//
// Virtual time is measured in integer picoseconds. Picosecond resolution
// matters for this repository's workload: an 8-byte PCIe word at ~10 GB/s
// occupies the link for ~800 ps, which would round to zero at nanosecond
// resolution and accumulate large errors over a bandwidth sweep.
package simtime

import (
	"fmt"
	"math"
)

// Time is an absolute simulation timestamp in picoseconds since the start of
// the simulation.
type Time int64

// Duration is a span of simulated time in picoseconds.
type Duration int64

// Common durations, expressed in picoseconds.
const (
	Picosecond  Duration = 1
	Nanosecond           = 1000 * Picosecond
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Add returns the time d after t, saturating at the bounds of Time: a
// timeout of math.MaxInt64 is the end of time, not a time in the past.
func (t Time) Add(d Duration) Time {
	s := t + Time(d)
	switch {
	case d > 0 && s < t:
		return math.MaxInt64
	case d < 0 && s > t:
		return math.MinInt64
	}
	return s
}

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Microseconds returns d as a floating-point microsecond count.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

// Seconds returns d as a floating-point second count.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// String formats the duration with an adaptive unit, e.g. "6.1us".
func (d Duration) String() string {
	neg := ""
	if d < 0 {
		neg = "-"
		d = -d
	}
	switch {
	case d < Nanosecond:
		return fmt.Sprintf("%s%dps", neg, int64(d))
	case d < Microsecond:
		return fmt.Sprintf("%s%.3gns", neg, float64(d)/float64(Nanosecond))
	case d < Millisecond:
		return fmt.Sprintf("%s%.4gus", neg, float64(d)/float64(Microsecond))
	case d < Second:
		return fmt.Sprintf("%s%.4gms", neg, float64(d)/float64(Millisecond))
	default:
		return fmt.Sprintf("%s%.4gs", neg, float64(d)/float64(Second))
	}
}

// String formats the timestamp as a duration since simulation start.
func (t Time) String() string { return Duration(t).String() }

// Microseconds returns the time since simulation start as a floating-point
// microsecond count — the unit of the Chrome trace-event format.
func (t Time) Microseconds() float64 { return Duration(t).Microseconds() }

// BytesOver returns the serialization delay of n bytes at the given rate in
// bytes/second, rounded up to a whole picosecond.
func BytesOver(n int64, bytesPerSecond float64) Duration {
	if n <= 0 {
		return 0
	}
	ps := float64(n) * float64(Second) / bytesPerSecond
	d := Duration(ps)
	if float64(d) < ps {
		d++
	}
	return d
}
