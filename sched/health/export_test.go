package health

import (
	"hamoffload/internal/core"
	"hamoffload/internal/simtime"
)

// EWMA returns a node's latency EWMA and whether it has samples yet, for the
// tests of both packages here to check the tracker's scoring against.
func (t *Tracker) EWMA(id core.NodeID) (simtime.Duration, bool) {
	if n := t.lookup(id); n != nil && n.sampled {
		return simtime.Duration(n.ewma), true
	}
	return 0, false
}
