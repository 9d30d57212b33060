package gateway

import (
	"slices"

	"hamoffload/internal/core"
	"hamoffload/sched"
)

// Affinity places request i on node assign(i), which must be one of the
// gateway's: the tests pin requests to chosen VEs with it.
func Affinity(assign func(i int) core.NodeID) sched.Policy { return affinity(assign) }

type affinity func(i int) core.NodeID

func (affinity) Name() string { return "affinity" }

func (a affinity) Pick(i int, nodes []core.NodeID, _ []int) int { return slices.Index(nodes, a(i)) }

// InFlight returns the total number of issued, unsettled requests.
func (g *Gateway[R]) InFlight() int {
	n := 0
	for vi := range g.infl {
		n += g.infl[vi].len()
	}
	return n
}

// Queued returns the total number of admitted, not yet issued requests.
func (g *Gateway[R]) Queued() int { return g.queued }

// Steals returns how many steal operations have run.
func (g *Gateway[R]) Steals() int64 { return g.steals }
