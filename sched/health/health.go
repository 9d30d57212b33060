// Package health scores the target nodes of a HAM-Offload application and
// ejects the sick ones — the gray-failure complement to core's fail-stop
// retry machinery. A Tracker keeps a latency EWMA and a run of consecutive
// failures per node, fed from offload settlements, and runs a per-node
// circuit breaker:
//
//	         strikes (consecutive failures, or EWMA
//	         an outlier against the healthiest node)
//	CLOSED ────────────────────────────────────────▶ OPEN
//	  ▲                                               │
//	  │ probe succeeds                     OpenFor    │
//	  │                                    elapses    │
//	  │                                               ▼
//	  └───────────────────────────────────────── HALF-OPEN
//	                   probe fails ▶ back to OPEN
//
// An open breaker makes the node invisible to a health-aware scheduling
// policy (sched.HealthAware) and to hedge-target selection, so traffic
// routes around a slow-but-alive VE instead of queueing behind it. After
// OpenFor of simulated time the breaker admits a single probe offload;
// the probe's outcome either re-closes the breaker (node re-admitted) or
// re-opens it for another cooldown.
//
// Everything is deterministic: the Tracker observes only what it is fed,
// timestamps come from the caller-supplied simulated clock, and all state
// lives in slices indexed by node id — no map iteration, no wall clock.
package health

import (
	"fmt"

	"hamoffload/internal/core"
	"hamoffload/internal/simtime"
)

// State is one node's circuit-breaker state.
type State uint8

const (
	// Closed admits traffic normally — the healthy state.
	Closed State = iota
	// Open ejects the node: no traffic until the cooldown elapses.
	Open
	// HalfOpen admits a single probe offload whose outcome decides between
	// re-closing and re-opening.
	HalfOpen
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Config parameterises a Tracker. The zero value of every field selects a
// sensible default, so New(Config{}, ...) is usable directly.
type Config struct {
	// OutlierFactor ejects a node whose latency EWMA exceeds this multiple
	// of the healthiest node's EWMA (default 4). Outlier detection needs at
	// least two nodes with samples; a single-node tracker only ejects on
	// failures.
	OutlierFactor float64
	// OutlierStrikes is how many consecutive outlier observations open the
	// breaker (default 8) — one slow sample is noise, a run of them is a
	// gray failure.
	OutlierStrikes int
	// FailureStrikes is how many consecutive failed offloads open the
	// breaker (default 3).
	FailureStrikes int
	// OpenFor is the cooldown an open breaker holds before admitting a
	// probe (default 200 µs of simulated time).
	OpenFor simtime.Duration
}

// ewmaAlpha is the weight of the newest latency sample in the per-node EWMA.
const ewmaAlpha = 0.25

func (c Config) withDefaults() Config {
	if c.OutlierFactor <= 1 {
		c.OutlierFactor = 4
	}
	if c.OutlierStrikes <= 0 {
		c.OutlierStrikes = 8
	}
	if c.FailureStrikes <= 0 {
		c.FailureStrikes = 3
	}
	if c.OpenFor <= 0 {
		c.OpenFor = 200 * simtime.Microsecond
	}
	return c
}

// node is one target's health state.
type node struct {
	id       core.NodeID
	ewma     float64 // latency EWMA in picoseconds; valid once sampled
	sampled  bool
	failRun  int // consecutive failures
	slowRun  int // consecutive outlier observations
	state    State
	openedAt simtime.Time
	probing  bool // HalfOpen: the single probe slot is taken
}

// Tracker scores a fixed set of target nodes and runs their breakers. Like
// the rest of the initiator-side stack it is not safe for concurrent use;
// on the simulated backends all observations arrive from the single
// running DES process.
type Tracker struct {
	cfg   Config
	clock func() simtime.Time
	nodes []node
	index []int // node id -> nodes index, -1 when untracked
	trans int64
}

// New builds a tracker over the given target nodes. clock supplies the
// simulated time breaker cooldowns are measured on; pass the runtime's
// SimNow. A nil clock pins time to 0, which degrades gracefully: breakers
// still open on strikes, and cooldowns of length zero are the only ones
// that ever elapse.
func New(cfg Config, nodes []core.NodeID, clock func() simtime.Time) *Tracker {
	if clock == nil {
		clock = func() simtime.Time { return 0 }
	}
	t := &Tracker{cfg: cfg.withDefaults(), clock: clock}
	max := -1
	for _, id := range nodes {
		t.nodes = append(t.nodes, node{id: id})
		if int(id) > max {
			max = int(id)
		}
	}
	t.index = make([]int, max+1)
	for i := range t.index {
		t.index[i] = -1
	}
	for i, n := range t.nodes {
		t.index[n.id] = i
	}
	return t
}

// Transitions returns how many breaker state transitions have occurred.
func (t *Tracker) Transitions() int64 { return t.trans }

// StateOf returns a node's breaker state (Closed for untracked nodes).
func (t *Tracker) StateOf(id core.NodeID) State {
	if n := t.lookup(id); n != nil {
		return n.state
	}
	return Closed
}

func (t *Tracker) lookup(id core.NodeID) *node {
	if int(id) < 0 || int(id) >= len(t.index) {
		return nil
	}
	i := t.index[id]
	if i < 0 {
		return nil
	}
	return &t.nodes[i]
}

// bestEWMA returns the healthiest sampled EWMA, excluding node skip.
func (t *Tracker) bestEWMA(skip *node) (float64, bool) {
	best, ok := 0.0, false
	for i := range t.nodes {
		n := &t.nodes[i]
		if n == skip || !n.sampled {
			continue
		}
		if !ok || n.ewma < best {
			best, ok = n.ewma, true
		}
	}
	return best, ok
}

// transition moves n to state s.
func (t *Tracker) transition(n *node, s State) {
	if n.state == s {
		return
	}
	t.trans++
	n.state = s
	switch s {
	case Open:
		n.openedAt = t.clock()
		n.probing = false
	case HalfOpen:
		n.probing = false
		// Latency history from before the ejection would judge even a fast
		// probe an outlier forever; the probe re-learns from scratch. A probe
		// that is still slow sets a fresh outlier EWMA and re-opens.
		n.ewma, n.sampled = 0, false
	case Closed:
		n.failRun = 0
		n.slowRun = 0
		n.probing = false
	}
}

// Observe feeds one settled offload into the tracker: the node it ran on,
// its issue-to-settle latency, and whether it failed. Schedulers call this
// from future settlement; conformance and chaos tests feed it directly.
func (t *Tracker) Observe(id core.NodeID, lat simtime.Duration, failed bool) {
	n := t.lookup(id)
	if n == nil {
		return
	}
	if failed {
		n.failRun++
	} else {
		n.failRun = 0
		if !n.sampled {
			n.ewma, n.sampled = float64(lat), true
		} else {
			n.ewma = ewmaAlpha*float64(lat) + (1-ewmaAlpha)*n.ewma
		}
	}
	outlier := false
	if !failed && n.sampled {
		if best, ok := t.bestEWMA(n); ok && n.ewma > t.cfg.OutlierFactor*best {
			outlier = true
		}
	}
	if outlier {
		n.slowRun++
	} else if !failed {
		n.slowRun = 0
	}
	switch n.state {
	case Closed:
		if n.failRun >= t.cfg.FailureStrikes || n.slowRun >= t.cfg.OutlierStrikes {
			t.transition(n, Open)
		}
	case HalfOpen:
		if !n.probing {
			return // a straggler from before the breaker opened; ignore
		}
		n.probing = false
		if failed || outlier {
			t.transition(n, Open)
			return
		}
		t.transition(n, Closed)
	case Open:
		// Late settlements of offloads issued before ejection do not move
		// the breaker.
	}
}

// Allows reports whether id may receive traffic right now. It is pure —
// candidate filtering may call it for every node without consuming probe
// slots; the scheduler applies the chosen node through CommitAdmit.
// Untracked nodes are always allowed.
func (t *Tracker) Allows(id core.NodeID) bool {
	n := t.lookup(id)
	if n == nil {
		return true
	}
	switch n.state {
	case Closed:
		return true
	case Open:
		return t.clock().Sub(n.openedAt) >= t.cfg.OpenFor
	default: // HalfOpen
		return !n.probing
	}
}

// CommitAdmit records that the caller is sending traffic to id: an open
// breaker past its cooldown transitions to half-open, and the half-open
// probe slot is consumed. Call it only for the node actually picked.
func (t *Tracker) CommitAdmit(id core.NodeID) {
	n := t.lookup(id)
	if n == nil {
		return
	}
	switch n.state {
	case Open:
		if t.clock().Sub(n.openedAt) >= t.cfg.OpenFor {
			t.transition(n, HalfOpen)
			n.probing = true
		}
	case HalfOpen:
		n.probing = true
	}
}
