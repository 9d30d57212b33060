package core

import "hamoffload/internal/simtime"

// Clock is a node's one notion of time. The runtime resolves it once from
// Backend.Clock; telemetry stamps, batch deadlines, hedge delays, retry
// backoff, budget refill and kernel cost accounting all read this one value.
//
// There are three implementations: vecore.HostClock (a simulated host
// process charged by the host roofline model), *veos.Ctx (a VE kernel
// context charged by the VE model, contending for the card's cores) and
// WallClock for nodes that run in real time.
type Clock interface {
	// Now reads the clock. An unsimulated clock reads 0 forever, so every
	// duration measured on it is 0: deadlines never fall due, budgets never
	// refill.
	Now() simtime.Time
	// Sleep advances the clock by d — retry backoff, poll pacing. On an
	// unsimulated clock it returns at once, so retries go out immediately.
	Sleep(d simtime.Duration)
	// ChargeVector advances the clock by the cost of kernel work on this
	// node's device (nothing on an unsimulated clock, where the Go
	// computation itself takes the time).
	ChargeVector(flops, bytes int64, cores int)
	// Simulated reports whether Now measures anything. Only a decision that
	// cannot wait for a delay it has no way to observe asks (hedging issues
	// the hedge before the first poll); everything else falls out of Now
	// reading 0 and Sleep returning at once.
	Simulated() bool
}

// WallClock is the Clock of nodes that run in real time (backend/locb,
// backend/tcpb): simulated time does not exist there.
var WallClock Clock = wallClock{}

type wallClock struct{}

func (wallClock) Now() simtime.Time              { return 0 }
func (wallClock) Sleep(simtime.Duration)         {}
func (wallClock) ChargeVector(int64, int64, int) {}
func (wallClock) Simulated() bool                { return false }

// TokenBucket is an integer token bucket refilled arithmetically on a
// caller-supplied clock: no timer, no goroutine, bit-identical per run. The
// gateway's tenant quotas and the runtime's retry budget both use it.
type TokenBucket struct {
	tokens int
	last   simtime.Time // refill high-water mark; the sub-period remainder carries over
}

// NewTokenBucket returns a full bucket whose refill periods count from now.
func NewTokenBucket(burst int, now simtime.Time) TokenBucket {
	return TokenBucket{tokens: burst, last: now}
}

// Take credits one token per whole period elapsed since the last credit,
// capped at burst, then spends one token; false means the bucket is empty.
// A period <= 0 never refills: the bucket is a one-time allowance.
func (b *TokenBucket) Take(now simtime.Time, period simtime.Duration, burst int) bool {
	if period > 0 {
		if n := now.Sub(b.last) / period; n > 0 {
			b.tokens = min(b.tokens+int(n), burst)
			b.last = b.last.Add(n * period)
		}
	}
	if b.tokens <= 0 {
		return false
	}
	b.tokens--
	return true
}
