package offload

import (
	"hamoffload/internal/core"
	"hamoffload/sched"
)

// Bulk offload APIs: message batching (core/batch.go) and cluster-wide
// scheduling (package sched), re-exported on the public facade.

type (
	// BatchPolicy drives when queued offloads flush as one batch frame;
	// the zero value disables batching. See core.BatchPolicy.
	BatchPolicy = core.BatchPolicy
	// Scheduler shards offloads across a node set under a Policy.
	Scheduler = sched.Scheduler
	// Policy decides task placement; see sched.RoundRobin,
	// sched.LeastInFlight and sched.HealthAware.
	Policy = sched.Policy
)

// AsyncBatch offloads fns to node as batch frames under rt's policy,
// returning the futures in submission order — one flag publish and one
// transfer per frame instead of per message.
func AsyncBatch[R any](rt *Runtime, node NodeID, fns []Functor[R]) []*Future[R] {
	return core.AsyncBatch(rt, node, fns)
}

// NewScheduler builds a scheduler over nodes of rt's application.
func NewScheduler(rt *Runtime, nodes []NodeID, pol Policy) (*Scheduler, error) {
	return sched.New(rt, nodes, pol)
}

// MapFutures shards n functor invocations across s's nodes and returns
// the futures in task order without waiting.
func MapFutures[R any](s *Scheduler, n int, gen func(task int) Functor[R]) []*Future[R] {
	return sched.MapFutures(s, n, gen)
}
