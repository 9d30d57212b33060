package core

// Gray-failure resilience: hedged requests and per-target retry budgets.
//
// The fault-tolerance layer (ft.go) handles fail-stop: a request that
// errors is retried. A fail-slow target — degraded DMA, a stalling VEOS
// daemon, a jittery link — never errors; callers just eat the tail
// latency. Hedging bounds that tail: once an offload has been in flight
// for the configured delay (set it near the workload's healthy p99), the
// sealed request is speculatively re-issued to a second healthy node and
// the first settled copy wins. Because the hedge re-posts the same
// sequence-numbered envelope, the dedup window keeps handler execution
// at-most-once per node: a hedge to the same node is answered from the
// cache without re-executing, and retransmissions of either copy dedup as
// usual. A hedge to a *different* node is a genuine speculative
// re-execution (the classic hedged-request trade-off), so cross-node
// hedging is for idempotent work — which offloaded functions overwhelmingly
// are. The runtime's own control messages (allocate, free, terminate,
// ping) are node-pinned and never hedge: they mutate one specific node's
// state, so a speculative copy on another node is wrong, not just wasted
// (see pinnedMessage in ft.go).
//
// The retry budget is the storm brake: every retransmission and every
// hedge spends a token from the target node's bucket, refilled on the
// simulated clock. When a node degrades, the budget caps how much extra
// traffic retries + hedges can aim at it, instead of amplifying the
// overload that made it slow in the first place.
//
// Everything here is off the hot path: with the zero HedgePolicy and zero
// RetryBudget the only cost is one comparison per resolve, wire bytes are
// bit-identical, and the un-armed Dispatch path stays zero-alloc (pinned
// by TestDispatchZeroAllocResilienceConfigured).

import (
	"fmt"

	"hamoffload/internal/faults"
	"hamoffload/internal/simtime"
	"hamoffload/internal/trace"
)

// HedgePolicy arms hedged requests on the initiating runtime. Hedging
// requires fault tolerance (the envelope's sequence numbers are what make
// the duplicate safe), and engages on blocking waits (Sync, Future.Get);
// non-blocking Future.Test polls do not hedge.
type HedgePolicy struct {
	// Delay is how long the primary may stay in flight before the hedge is
	// issued, on the simulated clock — set it near the workload's healthy
	// p99. 0 disables hedging. Wall-clock backends (locb, tcpb) have no
	// simulated clock to measure the delay against and hedge immediately.
	Delay simtime.Duration
	// Targets are the candidate nodes for the hedge; the first healthy
	// candidate that differs from the primary target wins. Empty, or no
	// healthy alternative, hedges to the primary node itself, where the
	// dedup window fully suppresses the duplicate execution.
	Targets []NodeID
	// Healthy filters hedge candidates — wire a health tracker's admission
	// check here so hedges avoid ejected nodes. Nil admits every candidate.
	Healthy func(NodeID) bool
	// Seed keys the splitmix64 stream (faults.Mix — the plan's stream, not
	// a fresh source) that jitters the hedge delay per offload, so
	// synchronized slow requests do not hedge in lockstep. 0 disables
	// jitter and every hedge fires at exactly Delay.
	Seed uint64
}

func (h HedgePolicy) enabled() bool { return h.Delay > 0 }

// RetryBudget is a per-target token bucket shared by retries and hedges:
// each retransmission or hedged re-issue to a node spends one token from
// that node's bucket. Tokens refill at one per Refill of simulated time,
// up to the Tokens capacity. The zero value disables budgeting (retries
// bounded only by FaultTolerance.MaxRetries, hedges unbounded).
//
// On wall-clock backends there is no simulated clock to refill against, so
// the bucket is a one-time allowance of Tokens per node.
type RetryBudget struct {
	Tokens int
	Refill simtime.Duration
}

func (b RetryBudget) enabled() bool { return b.Tokens > 0 }

// SetHedging installs the hedged-request policy on the initiating runtime.
// Call it before issuing offloads; hedging only engages for offloads that
// carry a fault-tolerance envelope (SetFaultTolerance with MaxRetries > 0).
func (rt *Runtime) SetHedging(h HedgePolicy) { rt.hedge = h }

// HedgingPolicy returns the installed hedging policy.
func (rt *Runtime) HedgingPolicy() HedgePolicy { return rt.hedge }

// SetRetryBudget installs the per-target retry/hedge token bucket.
func (rt *Runtime) SetRetryBudget(b RetryBudget) { rt.budget = b }

// RetryBudgetPolicy returns the installed retry budget.
func (rt *Runtime) RetryBudgetPolicy() RetryBudget { return rt.budget }

// Hedges returns how many hedged requests this runtime has issued.
func (rt *Runtime) Hedges() int64 { return rt.hedges }

// HedgeWins returns how many offloads were settled by their hedge rather
// than the primary request.
func (rt *Runtime) HedgeWins() int64 { return rt.hedgeWins }

// BudgetDenied returns how many retries or hedges the retry budget
// suppressed.
func (rt *Runtime) BudgetDenied() int64 { return rt.budgetDenied }

// spendToken charges one retry/hedge token against node's bucket and
// reports whether the budget allows the transmission. Always true with the
// budget off, which keeps the un-budgeted path allocation-free.
func (rt *Runtime) spendToken(node NodeID) bool {
	if !rt.budget.enabled() {
		return true
	}
	return rt.spendTokenSlow(node)
}

// spendTokenSlow is the armed-budget path: lazily build the buckets, refill
// node's on the simulated clock, spend one token or deny.
func (rt *Runtime) spendTokenSlow(node NodeID) bool {
	now := rt.clock.Now()
	if rt.buckets == nil {
		rt.buckets = make([]TokenBucket, rt.NumNodes())
		for i := range rt.buckets {
			rt.buckets[i] = NewTokenBucket(rt.budget.Tokens, now)
		}
	}
	if int(node) < 0 || int(node) >= len(rt.buckets) {
		return true
	}
	if !rt.buckets[node].Take(now, rt.budget.Refill, rt.budget.Tokens) {
		rt.budgetDenied++
		rt.tr.Instant(trace.PhaseRetry, "retry budget exhausted", rt.offloads)
		rt.tr.Count("offload.budget.denied", 1)
		return false
	}
	return true
}

// hedgePollQuantum paces the hedge race's poll loop on simulated
// backends: between unproductive polls the initiator sleeps this long, so
// the loop always advances the simulated clock toward the hedge deadline.
const hedgePollQuantum = 250 * simtime.Nanosecond

// hedgeDelay returns the simulated in-flight time after which pd's hedge
// fires: the configured Delay, jittered per offload from the plan's
// splitmix64 stream when a seed is set (up to +Delay/4).
func (rt *Runtime) hedgeDelay(pd *pending) simtime.Duration {
	d := rt.hedge.Delay
	if rt.hedge.Seed != 0 && d >= 4 {
		d += simtime.Duration(faults.Mix(rt.hedge.Seed, pd.seq) % uint64(d/4))
	}
	return d
}

// hedgeTarget picks the node the hedge goes to: the first configured
// candidate that is not the primary, passes the Healthy filter, and is a
// valid offload target. With no viable alternative the hedge goes back to
// the primary node, where dedup suppresses the duplicate execution.
func (rt *Runtime) hedgeTarget(primary NodeID) NodeID {
	for _, n := range rt.hedge.Targets {
		if n == primary || n == rt.ThisNode() || int(n) < 0 || int(n) >= rt.NumNodes() {
			continue
		}
		if rt.hedge.Healthy != nil && !rt.hedge.Healthy(n) {
			continue
		}
		return n
	}
	return primary
}

// issueHedge re-posts pd's sealed wire bytes to the hedge target, spending
// a budget token. It returns the hedge handle, or nil when the budget
// denied the hedge or the post itself failed (the primary remains the only
// copy in flight; the race does not retry a failed hedge — the retry
// machinery belongs to the primary).
func (rt *Runtime) issueHedge(pd *pending) Handle {
	node := rt.hedgeTarget(pd.node)
	if !rt.spendToken(node) {
		return nil
	}
	rt.hedges++
	rt.tr.Instant(trace.PhaseHedge, fmt.Sprintf("hedge seq %d -> node %d", pd.seq, node), rt.offloads)
	rt.tr.Count("offload.hedges", 1)
	if tr := rt.tr.Tracer(); tr != nil {
		now := rt.clock.Now()
		tr.Add(int(node), trace.SeriesHedges, now, 1)
		tr.Event(pd.fid, now, int(rt.ThisNode()), trace.FlowRetry, "hedge")
	}
	rt.noteSent(node, len(pd.msg))
	h, err := rt.backend.Call(node, pd.msg)
	if err != nil {
		return nil
	}
	return h
}

// reapStrays polls the abandoned hedge losers so their backend slots free
// up as responses arrive. Strays that are still in flight stay queued; the
// backends additionally self-drain (Call waits out a slot's previous
// occupant), so a straggler can delay a later offload but never wedge one.
func (rt *Runtime) reapStrays() {
	kept := rt.strays[:0]
	for _, s := range rt.strays {
		if _, done, err := rt.backend.Poll(s); !done && err == nil {
			kept = append(kept, s)
		}
	}
	rt.strays = kept
}

// race is backend.Wait for a hedging-armed runtime: poll the primary, issue
// the hedge once the delay elapses, the first copy that delivers wins, the
// loser is left to the stray reaper. A copy that fails transiently drops
// out of the race; when both copies have failed the last error goes back
// to resolve, whose retry re-posts a new primary that may hedge again.
func (c *call) race() error {
	rt, pd := c.rt, c.pd
	delay := rt.hedgeDelay(pd)
	hs := [2]Handle{c.h, nil}
	alive := [2]bool{true, false}
	hedgeTried := false
	var lastErr error
	for alive[0] || alive[1] {
		// The delay measures in-flight time, so it counts from the moment the
		// request was sealed (or re-posted) — on protocols whose Call itself
		// advances simulated time (veob's privileged-DMA writes) the primary
		// may already be past the deadline when the caller first blocks.
		// Without a simulated clock the delay is unmeasurable; hedge before
		// the first poll so wall-clock behaviour is deterministic.
		if !hedgeTried && alive[0] && (!rt.clock.Simulated() || rt.clock.Now().Sub(pd.sentAt) >= delay) {
			hedgeTried = true
			if nh := rt.issueHedge(pd); nh != nil {
				hs[1], alive[1] = nh, true
			}
		}
		progressed := false
		for i := range hs {
			if !alive[i] {
				continue
			}
			resp, done, err := rt.backend.Poll(hs[i])
			if !done && err == nil {
				continue
			}
			progressed = true
			if err == nil {
				if err = c.deliver(resp); err == nil {
					if i == 1 {
						rt.hedgeWins++
						rt.tr.Count("offload.hedge.wins", 1)
					}
					if other := 1 - i; alive[other] {
						rt.strays = append(rt.strays, hs[other])
					}
					return nil
				}
			}
			alive[i] = false
			lastErr = err
		}
		if !progressed {
			rt.clock.Sleep(hedgePollQuantum)
		}
	}
	return lastErr
}
