// Package sched schedules offload work across the Vector Engines of a
// HAM-Offload application — the cluster-scale layer the paper's §VI outlook
// gestures at. A Scheduler owns a set of target nodes (typically every VE
// of a machine.Cluster) and a pluggable placement Policy; Map and ForEach
// shard a sequence of functor invocations across those nodes and gather
// the results in task order.
//
// Submission composes with core's message batching: when the runtime has a
// BatchPolicy armed, the tasks assigned to one node coalesce into batch
// frames and amortise the per-message protocol cost; with batching off,
// each task travels as an ordinary async offload. Either way scheduling is
// deterministic: policies are pure functions of the observable scheduler
// state, which on the simulated backends evolves identically from run to
// run.
package sched

import (
	"fmt"

	"hamoffload/internal/core"
	"hamoffload/internal/simtime"
	"hamoffload/sched/health"
)

// Policy decides placement: given the task index, the candidate nodes and
// the scheduler's current per-node in-flight counts (parallel to nodes),
// Pick returns the index of the chosen node. Implementations must be
// deterministic — no wall clock, no math/rand — so simulated runs stay
// bit-reproducible.
type Policy interface {
	// Name labels the policy in traces and experiment output.
	Name() string
	// Pick chooses nodes[i] for the task. Out-of-range returns fall back
	// to round-robin placement.
	Pick(task int, nodes []core.NodeID, inflight []int) int
}

// RoundRobin places tasks on the nodes in rotation, ignoring load — the
// right default when tasks are uniform.
func RoundRobin() Policy { return &roundRobin{} }

type roundRobin struct{ next int }

func (r *roundRobin) Name() string { return "round-robin" }

func (r *roundRobin) Pick(task int, nodes []core.NodeID, inflight []int) int {
	i := r.next % len(nodes)
	r.next++
	return i
}

// LeastInFlight places each task on the node with the fewest offloads
// still in flight, breaking ties toward the lowest index. With uneven task
// durations it keeps slow nodes from accumulating backlog as completed
// futures are harvested.
func LeastInFlight() Policy { return leastInFlight{} }

type leastInFlight struct{}

func (leastInFlight) Name() string { return "least-in-flight" }

func (leastInFlight) Pick(task int, nodes []core.NodeID, inflight []int) int {
	best := 0
	for i := 1; i < len(inflight); i++ {
		if inflight[i] < inflight[best] {
			best = i
		}
	}
	return best
}

// Affinity pins tasks to nodes through assign, for workloads whose data
// already lives on specific VEs. A task whose assigned node is not among
// the scheduler's falls back to round-robin placement by task index.
func Affinity(assign func(task int) core.NodeID) Policy { return affinity{assign} }

type affinity struct {
	assign func(task int) core.NodeID
}

func (affinity) Name() string { return "affinity" }

func (a affinity) Pick(task int, nodes []core.NodeID, inflight []int) int {
	want := a.assign(task)
	for i, n := range nodes {
		if n == want {
			return i
		}
	}
	return task % len(nodes)
}

// HealthAware composes a placement policy with a health tracker: candidate
// nodes whose circuit breaker is open are filtered out before the inner
// policy picks, so traffic routes around ejected nodes; the one node
// actually picked is committed back to the tracker, which is how an open
// breaker's probe slot gets consumed. When every candidate is ejected the
// policy fails open — degraded service beats no service — and the inner
// policy picks over the full set.
//
// Used as a Scheduler's policy, the scheduler feeds every settled task's
// (node, latency, outcome) back into the tracker automatically, closing
// the observe → score → eject → probe → re-admit loop.
func HealthAware(inner Policy, t *health.Tracker) Policy {
	return &healthAware{inner: inner, trk: t}
}

type healthAware struct {
	inner Policy
	trk   *health.Tracker

	// Pick scratch, reused across calls to keep placement allocation-free.
	fnodes    []core.NodeID
	finflight []int
	fidx      []int
}

func (h *healthAware) Name() string { return "health+" + h.inner.Name() }

func (h *healthAware) Pick(task int, nodes []core.NodeID, inflight []int) int {
	h.fnodes, h.finflight, h.fidx = h.fnodes[:0], h.finflight[:0], h.fidx[:0]
	for i, n := range nodes {
		if h.trk.Allows(n) {
			h.fnodes = append(h.fnodes, n)
			h.finflight = append(h.finflight, inflight[i])
			h.fidx = append(h.fidx, i)
		}
	}
	if len(h.fnodes) == 0 {
		i := h.inner.Pick(task, nodes, inflight)
		if i < 0 || i >= len(nodes) {
			i = task % len(nodes)
		}
		h.trk.CommitAdmit(nodes[i])
		return i
	}
	j := h.inner.Pick(task, h.fnodes, h.finflight)
	if j < 0 || j >= len(h.fnodes) {
		j = task % len(h.fnodes)
	}
	i := h.fidx[j]
	h.trk.CommitAdmit(nodes[i])
	return i
}

func (h *healthAware) observe(n core.NodeID, lat simtime.Duration, failed bool) {
	h.trk.Observe(n, lat, failed)
}

// settleObserver is implemented by policies that want task settlements fed
// back to them (healthAware feeds its tracker). The scheduler detects it
// and wires the observations into future settlement.
type settleObserver interface {
	observe(n core.NodeID, lat simtime.Duration, failed bool)
}

// Scheduler shards offloads across a fixed node set under a Policy. Like
// the rest of the initiator API it is not safe for concurrent use.
type Scheduler struct {
	rt       *core.Runtime
	nodes    []core.NodeID
	pol      Policy
	inflight []int
	issued   int64
	done     int64
	// batchers is the free list of MapFutures' batchers: a call takes one
	// and puts it back once FlushAll has shipped its frames, so the queues,
	// frame arenas and encoder are built once per scheduler. A call a frame
	// flush parks keeps its batcher, and a concurrent call takes another.
	batchers []*core.Batcher
}

// New builds a scheduler over nodes of rt's application. Every node must
// be a valid offload target (in range, not the caller itself).
func New(rt *core.Runtime, nodes []core.NodeID, pol Policy) (*Scheduler, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("sched: no target nodes")
	}
	if pol == nil {
		return nil, fmt.Errorf("sched: nil policy")
	}
	for _, n := range nodes {
		if n == rt.ThisNode() {
			return nil, fmt.Errorf("sched: node %d is the scheduling node itself", n)
		}
		if int(n) < 0 || int(n) >= rt.NumNodes() {
			return nil, fmt.Errorf("sched: no node %d in this application (%d nodes)", n, rt.NumNodes())
		}
	}
	return &Scheduler{
		rt:       rt,
		nodes:    append([]core.NodeID(nil), nodes...),
		pol:      pol,
		inflight: make([]int, len(nodes)),
	}, nil
}

// Targets returns every node of rt's application except the caller itself —
// the natural node set for a scheduler over all VEs.
func Targets(rt *core.Runtime) []core.NodeID {
	var nodes []core.NodeID
	for n := 0; n < rt.NumNodes(); n++ {
		if core.NodeID(n) != rt.ThisNode() {
			nodes = append(nodes, core.NodeID(n))
		}
	}
	return nodes
}

// Nodes returns the scheduler's node set.
func (s *Scheduler) Nodes() []core.NodeID { return append([]core.NodeID(nil), s.nodes...) }

// Policy returns the placement policy.
func (s *Scheduler) Policy() Policy { return s.pol }

// InFlight returns the current per-node in-flight counts, parallel to
// Nodes. Counts drop as futures settle (in Get/Test), so they reflect the
// initiator's view, not the wire.
func (s *Scheduler) InFlight() []int { return append([]int(nil), s.inflight...) }

// Issued returns how many tasks the scheduler has placed.
func (s *Scheduler) Issued() int64 { return s.issued }

// Completed returns how many placed tasks have settled.
func (s *Scheduler) Completed() int64 { return s.done }

// place runs the policy for one task, clamping bad returns to round-robin.
func (s *Scheduler) place(task int) int {
	i := s.pol.Pick(task, s.nodes, s.inflight)
	if i < 0 || i >= len(s.nodes) {
		i = task % len(s.nodes)
	}
	return i
}

// MapFutures shards n functor invocations — gen(task) for task 0..n-1 —
// across the scheduler's nodes and returns the futures in task order,
// without waiting for any of them. Tasks bound for the same node ride the
// runtime's batch frames when batching is armed. The futures and their
// settle records live in one slab each, and the batcher is the
// scheduler's, so a call allocates its three slabs whatever n is.
func MapFutures[R any](s *Scheduler, n int, gen func(task int) core.Functor[R]) []*core.Future[R] {
	b := s.takeBatcher()
	obs, _ := s.pol.(settleObserver)
	slab := make([]core.Future[R], n)
	hooks := make([]taskHook[R], n)
	futs := make([]*core.Future[R], n)
	for task := range n {
		i := s.place(task)
		node := s.nodes[i]
		f, h := &slab[task], &hooks[task]
		fn := gen(task)
		core.Issue(s.rt, b, node, &fn, f)
		s.rt.NotePlacement(s.pol.Name(), node)
		s.inflight[i]++
		s.issued++
		*h = taskHook[R]{s: s, obs: obs, fut: f, i: i, node: node, start: s.rt.SimNow()}
		f.OnSettleHook(h)
		futs[task] = f
	}
	b.FlushAll()
	// Not deferred: a call that panics leaves entries queued in b, and no
	// later call may ship them.
	s.batchers = append(s.batchers, b)
	return futs
}

// takeBatcher returns a batcher from the free list, or a new one when every
// batcher is out with a call in progress.
func (s *Scheduler) takeBatcher() *core.Batcher {
	if k := len(s.batchers) - 1; k >= 0 {
		b := s.batchers[k]
		s.batchers[k] = nil
		s.batchers = s.batchers[:k]
		return b
	}
	return core.NewBatcher(s.rt)
}

// taskHook is one task's settle record: it returns the task's in-flight
// slot and, when the policy observes settlements, feeds the outcome back.
type taskHook[R any] struct {
	s     *Scheduler
	obs   settleObserver // nil when the policy does not observe
	fut   *core.Future[R]
	i     int // index into the scheduler's node list
	node  core.NodeID
	start simtime.Time
}

// FutureSettled implements core.SettleHook. Get returns the already-settled
// outcome, so it never blocks.
func (h *taskHook[R]) FutureSettled() {
	h.s.inflight[h.i]--
	h.s.done++
	if h.obs != nil {
		_, err := h.fut.Get()
		h.obs.observe(h.node, h.s.rt.SimNow().Sub(h.start), err != nil)
	}
}

// Map shards n functor invocations across the scheduler's nodes, waits for
// all of them, and returns the results in task order plus the first error
// (after draining every future, so no offload is left dangling).
func Map[R any](s *Scheduler, n int, gen func(task int) core.Functor[R]) ([]R, error) {
	return core.GetAll(MapFutures(s, n, gen))
}

// ForEach is Map for side-effecting tasks: results are discarded, the
// first error is returned.
func ForEach[R any](s *Scheduler, n int, gen func(task int) core.Functor[R]) error {
	_, err := Map(s, n, gen)
	return err
}
