package core

import (
	"fmt"
	"slices"
	"testing"

	"hamoffload/internal/simtime"
)

// The one token bucket: integer refill of elapsed/period tokens, the
// remainder carried to the next refill, capped at burst, immune to a clock
// that stands still or runs backwards.
func TestTokenBucket(t *testing.T) {
	const us = simtime.Microsecond
	type step struct {
		at     simtime.Duration // absolute time of the Take
		ok     bool
		tokens int // left in the bucket afterwards
	}
	for _, tc := range []struct {
		name   string
		burst  int
		period simtime.Duration
		start  simtime.Duration // when the bucket is created
		steps  []step
	}{
		{"drain then deny", 2, 10 * us, 0, []step{{0, true, 1}, {0, true, 0}, {0, false, 0}}},
		{"remainder carries", 1, 10 * us, 0, []step{
			{0, true, 0},
			{9 * us, false, 0},  // 9 µs: not a whole period yet
			{19 * us, true, 0},  // one period credited at 10 µs, 9 µs carried...
			{20 * us, true, 0},  // ...so 1 µs later the second period completes
			{29 * us, false, 0}, // and the third has not
		}},
		{"caps at burst", 3, us, 0, []step{
			{0, true, 2}, {0, true, 1}, {0, true, 0},
			{1000 * us, true, 2}, // a long idle refills to 3, not 1000
		}},
		{"zero and negative elapsed", 1, 10 * us, 50 * us, []step{
			{50 * us, true, 0},  // the bucket starts full: nothing to credit
			{50 * us, false, 0}, // same instant: nothing elapsed
			{20 * us, false, 0}, // clock ran backwards: no credit, no panic
			{60 * us, true, 0},  // periods still count from the high-water mark
		}},
		{"period <= 0 is a one-time allowance", 2, 0, 0, []step{
			{0, true, 1}, {1000 * us, true, 0}, {2000 * us, false, 0},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := NewTokenBucket(tc.burst, simtime.Time(0).Add(tc.start))
			for i, s := range tc.steps {
				ok := b.Take(simtime.Time(0).Add(s.at), tc.period, tc.burst)
				if ok != s.ok || b.tokens != s.tokens {
					t.Fatalf("step %d at %v: Take = %v with %d left, want %v with %d", i, s.at, ok, b.tokens, s.ok, s.tokens)
				}
			}
		})
	}
}

// wallResBackend is the resBackend on the no-op wall clock, logging the
// order of its wire operations; the first fails Calls fail transiently.
type wallResBackend struct {
	*resBackend
	fails int
	ops   []string
}

func (b *wallResBackend) Clock() Clock { return WallClock }

func (b *wallResBackend) Call(n NodeID, msg []byte) (Handle, error) {
	b.ops = append(b.ops, fmt.Sprintf("call %d", n))
	if b.fails > 0 {
		b.fails--
		return nil, transientErr{}
	}
	return b.resBackend.Call(n, msg)
}

func (b *wallResBackend) Poll(h Handle) ([]byte, bool, error) {
	b.ops = append(b.ops, "poll")
	return b.resBackend.Poll(h)
}

// What a node without a simulated clock does where the others measure time:
// the hedge goes out before the first poll (the delay is unmeasurable),
// retries go out without a backoff sleep, and a retry budget is a one-time
// allowance that never refills.
func TestWallClockHedgesFirstRetriesAtOnce(t *testing.T) {
	b := &wallResBackend{resBackend: newResBackend(0, 0)}
	rt := NewRuntime(b, "res-arch-wall")
	rt.SetFaultTolerance(FaultTolerance{MaxRetries: 3, BackoffBase: simtime.Second})
	rt.SetHedging(HedgePolicy{Delay: simtime.Second, Targets: []NodeID{2}})
	if v, err := Sync(rt, 1, fnResEcho.Bind(5)); err != nil || v != 5 {
		t.Fatalf("hedged Sync = %d, %v", v, err)
	}
	if want := []string{"call 1", "call 2", "poll"}; !slices.Equal(b.ops, want) {
		t.Errorf("wire operations = %v, want %v: the hedge precedes the first poll", b.ops, want)
	}

	b.ops, b.fails = nil, 2
	rt.SetHedging(HedgePolicy{})
	if v, err := Sync(rt, 1, fnResEcho.Bind(6)); err != nil || v != 6 {
		t.Fatalf("retried Sync = %d, %v", v, err)
	}
	if want := []string{"call 1", "call 1", "call 1"}; !slices.Equal(b.ops, want) || rt.Retries() != 2 {
		t.Errorf("wire operations = %v with %d retries, want %v with 2", b.ops, rt.Retries(), want)
	}
	if b.now != 0 || rt.SimNow() != 0 {
		t.Errorf("a second of backoff moved a clock: backend %v, runtime %v", b.now, rt.SimNow())
	}

	rt.SetRetryBudget(RetryBudget{Tokens: 1, Refill: simtime.Nanosecond})
	if !rt.spendToken(1) || rt.spendToken(1) || rt.spendToken(1) {
		t.Error("a wall-clock retry budget is one allowance of Tokens, never refilled")
	}
}
