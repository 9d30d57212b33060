package trace

import (
	"math"
	"testing"

	"hamoffload/internal/simtime"
)

// bucketOfFloat is the routine the table lookup replaced, kept as the
// oracle: a float log estimate nudged until bucketLow's invariant holds.
func bucketOfFloat(d simtime.Duration) int {
	ns := float64(d) / float64(simtime.Nanosecond)
	if ns < 1 {
		return 0
	}
	i := int(2 * math.Log2(ns))
	if i < 0 {
		i = 0
	}
	if i > 127 {
		i = 127
	}
	for i > 0 && bucketLow(i) > d {
		i--
	}
	for i < 127 && bucketLow(i+1) <= d {
		i++
	}
	return i
}

func TestBucketOfMatchesFloatOracle(t *testing.T) {
	check := func(d simtime.Duration) {
		t.Helper()
		if got, want := bucketOf(d), bucketOfFloat(d); got != want {
			t.Fatalf("bucketOf(%d ps) = %d, float oracle %d", int64(d), got, want)
		}
	}
	check(0)
	check(math.MaxInt64)
	check(math.MaxInt64 - 1)
	for i := 0; i < 128; i++ {
		low := bucketLow(i)
		check(low)
		if low > 0 {
			check(low - 1)
		}
		if low < math.MaxInt64 {
			check(low + 1)
		}
	}
	// 10^6 durations from a splitmix64 stream, spread over every magnitude:
	// a uniform draw shifted right by a drawn amount.
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return z ^ z>>31
	}
	for n := 0; n < 1_000_000; n++ {
		check(simtime.Duration(next() >> 1 >> (next() % 63)))
	}
}

func TestObserveInMatchesObserve(t *testing.T) {
	a, b := NewHistogram("a"), NewHistogram("b")
	for _, d := range []simtime.Duration{-5, 0, 999, 1000, 123456, 7 * simtime.Second} {
		a.Observe(d)
		b.ObserveIn(Bucket(d), d)
	}
	b.name = a.name
	if *a != *b {
		t.Fatalf("ObserveIn(Bucket(d), d) and Observe(d) disagree:\n%+v\n%+v", *a, *b)
	}
}
