package main

import (
	"strings"

	"hamoffload/internal/simtime"
	"hamoffload/internal/trace"
)

// Simulated-clock span families the per-layer T metrics are built from. The
// benchmark reads them from the program's existing tracer registries; it adds
// no span of its own inside the program.
const (
	aggPCIeWire = iota // "pcie VH=>VE" / "pcie VE=>VH": wire occupancy under DMA
	aggLHM             // "lhm-load": VE load from host memory (flag polls)
	aggSHM             // "shm-store": VE store to host memory (results)
	aggUserDMA         // "user-dma *"
	aggPrivDMA         // "priv-dma-*"
	aggVEOWrite        // "veo_write_mem"
	aggVEORead         // "veo_read_mem"
	aggCall            // backend phases, summed over the application's nodes
	aggPoll
	aggFetch
	aggResult
	aggWait
	aggOffload // core: initiator-side lifecycle span per message
	aggExecute // core: target-side handler span per message
	numAgg
)

type spanAgg struct {
	count int64
	total simtime.Duration
}

// simTotals is a snapshot of the tracer's registries folded into the
// families above; two snapshots subtract to the timed region's share.
type simTotals struct {
	agg        [numAgg]spanAgg
	execByNode [9]int64 // PhaseExecute spans per application node (1..8)
	flushes    int64    // registry counters of the initiator
	messages   int64
	retries    int64
	spans      int64 // every span the registries saw
}

func infraFamily(name string) int {
	switch {
	case strings.HasPrefix(name, "pcie "):
		return aggPCIeWire
	case name == "lhm-load":
		return aggLHM
	case name == "shm-store":
		return aggSHM
	case strings.HasPrefix(name, "user-dma "):
		return aggUserDMA
	case strings.HasPrefix(name, "priv-dma-"):
		return aggPrivDMA
	case name == "veo_write_mem":
		return aggVEOWrite
	case name == "veo_read_mem":
		return aggVEORead
	}
	return -1
}

func phaseFamily(ph trace.Phase) int {
	switch ph {
	case trace.PhaseCall:
		return aggCall
	case trace.PhasePoll:
		return aggPoll
	case trace.PhaseFetch:
		return aggFetch
	case trace.PhaseResult:
		return aggResult
	case trace.PhaseWait:
		return aggWait
	case trace.PhaseOffload:
		return aggOffload
	case trace.PhaseExecute:
		return aggExecute
	}
	return -1
}

// collectSim folds the tracer's registries; a nil tracer yields zeros.
func collectSim(tr *trace.Tracer) simTotals {
	var t simTotals
	for _, reg := range tr.Registries() {
		node := reg.Node()
		for _, st := range reg.SpanStats() {
			t.spans += st.Count
			fam := phaseFamily(st.Phase)
			if node == trace.NodeInfra {
				fam = infraFamily(st.Name)
			}
			if fam < 0 {
				continue
			}
			t.agg[fam].count += st.Count
			t.agg[fam].total += st.Total
			if fam == aggExecute && node > 0 && node < len(t.execByNode) {
				t.execByNode[node] += st.Count
			}
		}
		if node == 0 {
			t.flushes += reg.Counter("batch.flushes")
			t.messages += reg.Counter("batch.messages")
			t.retries += reg.Counter("offload.retries")
		}
	}
	return t
}

func (t simTotals) minus(o simTotals) simTotals {
	for i := range t.agg {
		t.agg[i].count -= o.agg[i].count
		t.agg[i].total -= o.agg[i].total
	}
	for i := range t.execByNode {
		t.execByNode[i] -= o.execByNode[i]
	}
	t.flushes -= o.flushes
	t.messages -= o.messages
	t.retries -= o.retries
	t.spans -= o.spans
	return t
}

// mean is the family's mean span in µs of simulated time.
func (a spanAgg) meanUS() float64 {
	if a.count == 0 {
		return 0
	}
	return a.total.Microseconds() / float64(a.count)
}

// imbalance is max ÷ mean handler executions over the nodes that ran any.
func (t simTotals) imbalance() float64 {
	var sum, max int64
	n := 0
	for _, c := range t.execByNode {
		if c == 0 {
			continue
		}
		n++
		sum += c
		if c > max {
			max = c
		}
	}
	if sum == 0 {
		return 0
	}
	return float64(max) * float64(n) / float64(sum)
}
