package trace

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"

	"hamoffload/internal/simtime"
)

// FlowKind labels one step of an offload's causal record.
type FlowKind string

const (
	// FlowIssue marks the offload being issued on the initiator.
	FlowIssue FlowKind = "issue"
	// FlowPlace marks a scheduler placement decision (name = policy).
	FlowPlace FlowKind = "place"
	// FlowFlush marks the offload's batch frame shipping (name = frame label).
	FlowFlush FlowKind = "flush"
	// FlowRetry marks a retransmission of the offload's wire message.
	FlowRetry FlowKind = "retry"
	// FlowExecute marks the message dispatching on the target node.
	FlowExecute FlowKind = "execute"
	// FlowSettle marks the offload's future settling on the initiator.
	FlowSettle FlowKind = "settle"
)

// FlowEvent is one step of one offload's causal record. Events sharing an ID
// belong to one offload; recording order within an ID is causal order.
type FlowEvent struct {
	ID   uint64
	T    simtime.Time
	Node int // node the step happened on (target node for place)
	Kind FlowKind
	Name string // functor name, policy name, or retry label
}

// Label is the event's display string in exports.
func (e FlowEvent) Label() string {
	if e.Name == "" {
		return string(e.Kind)
	}
	return string(e.Kind) + " " + e.Name
}

// FlowsEnabled reports whether causal flow tracing is armed. False on nil.
func (t *Tracer) FlowsEnabled() bool { return t != nil && t.cfg.Flows }

// NextTraceID allocates the next deterministic 64-bit trace ID. IDs are a
// splitmix64 mix of an allocation counter: unique, well-spread for display
// tools, and identical across reruns of the same simulation.
func (t *Tracer) NextTraceID() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.traceSeq++
	id := splitmix64(t.traceSeq)
	t.mu.Unlock()
	return id
}

// Event appends one causal flow event. A no-op unless Flows is armed.
func (t *Tracer) Event(id uint64, now simtime.Time, node int, kind FlowKind, name string) {
	if !t.FlowsEnabled() || id == 0 {
		return
	}
	t.mu.Lock()
	t.flows = append(t.flows, FlowEvent{ID: id, T: now, Node: node, Kind: kind, Name: name})
	t.mu.Unlock()
}

// FlowEvents returns a copy of the causal event log in recording order.
func (t *Tracer) FlowEvents() []FlowEvent {
	if !t.FlowsEnabled() {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]FlowEvent(nil), t.flows...)
}

// splitmix64 is the finalizer of the SplitMix64 generator — a cheap,
// high-quality bijective mix, so sequential seeds yield well-spread IDs.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E9B5
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// chains groups a snapshot of the causal log by trace ID: ids in first-seen
// (recording) order, and each ID's event indices in recording order, so no
// map iteration order leaks into an export.
func chains(events []FlowEvent) (ids []uint64, byID map[uint64][]int) {
	byID = make(map[uint64][]int)
	for i, e := range events {
		if _, ok := byID[e.ID]; !ok {
			ids = append(ids, e.ID)
		}
		byID[e.ID] = append(byID[e.ID], i)
	}
	return ids, byID
}

// ExportChromeFlows writes the causal log as Chrome trace-event JSON: every
// event is a thin slice on its node's track, and events sharing a trace ID
// are connected with flow arrows (ph s/t/f), so chrome://tracing or Perfetto
// draws each offload's issue → place → flush → execute → settle chain across
// nodes. Output is deterministic: events ordered by time and node — ties in
// recording order —, stable field order. A chain's s/t/f roles follow its
// recording order, which is causal order.
func (t *Tracer) ExportChromeFlows(w io.Writer) error {
	if !t.FlowsEnabled() {
		_, err := io.WriteString(w, "[]\n")
		return err
	}
	events := t.FlowEvents()
	_, byID := chains(events)
	order := make([]int, len(events))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return cmp.Or(cmp.Compare(events[a].T, events[b].T), cmp.Compare(events[a].Node, events[b].Node))
	})

	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	first := true
	emit := func(format string, args ...any) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		fmt.Fprintf(bw, format, args...)
	}
	// Node tracks use ExportChrome's pids, so the two exports line up.
	seenPid := map[int]bool{}
	for _, i := range order {
		e := events[i]
		pid := chromePid(e.Node)
		if !seenPid[pid] {
			seenPid[pid] = true
			emit(`{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":"node %d"}}`, pid, e.Node)
		}
		emit(`{"name":%q,"cat":"flow","ph":"X","ts":%.6f,"dur":0.001,"pid":%d,"tid":1}`,
			e.Label(), e.T.Microseconds(), pid)
		chain := byID[e.ID]
		if len(chain) < 2 {
			continue
		}
		pos := 0
		for j, idx := range chain {
			if idx == i {
				pos = j
				break
			}
		}
		ph := "t"
		switch pos {
		case 0:
			ph = "s"
		case len(chain) - 1:
			ph = "f"
		}
		bp := ""
		if ph == "f" {
			bp = `,"bp":"e"`
		}
		emit(`{"name":"offload","cat":"flow","ph":%q,"id":"0x%x","ts":%.6f,"pid":%d,"tid":1%s}`,
			ph, e.ID, e.T.Microseconds(), pid, bp)
	}
	if _, err := bw.WriteString("\n]\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// ExportFolded writes the causal log as folded flamegraph stacks (the
// flamegraph.pl / inferno input format): each offload contributes one frame
// per causal step, and the weight of a stack prefix is the simulated time
// spent between its last step and the next. Lines are aggregated and sorted,
// so identical runs produce identical bytes.
func (t *Tracer) ExportFolded(w io.Writer) error {
	if !t.FlowsEnabled() {
		return nil
	}
	events := t.FlowEvents()
	ids, byID := chains(events)

	weights := map[string]int64{}
	for _, id := range ids {
		chain := byID[id]
		stack := ""
		for i := 0; i+1 < len(chain); i++ {
			cur, next := events[chain[i]], events[chain[i+1]]
			if stack == "" {
				stack = cur.Label()
			} else {
				stack += ";" + cur.Label()
			}
			gap := next.T.Sub(cur.T)
			if gap < 0 {
				gap = 0
			}
			weights[stack] += int64(gap)
		}
	}
	stacks := make([]string, 0, len(weights))
	for s := range weights {
		stacks = append(stacks, s)
	}
	sort.Strings(stacks)
	bw := bufio.NewWriter(w)
	for _, s := range stacks {
		// Weights are picoseconds of simulated time; flamegraph tools treat
		// them as opaque sample counts.
		fmt.Fprintf(bw, "%s %d\n", s, weights[s])
	}
	return bw.Flush()
}
