package trace

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
)

// chromeEvent is one entry of the Chrome trace-event format
// (chrome://tracing, https://ui.perfetto.dev).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	S    string         `json:"s,omitempty"` // instant-event scope ("t" = thread)
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromePid maps a HAM node id to a trace-event process id. Node n becomes
// pid n+2 so node 0 is pid 2 and infrastructure (NodeInfra) is pid 1.
func chromePid(node int) int { return node + 2 }

// ExportChrome writes the spans as a Chrome trace-event JSON array (the
// array-of-events form), loadable in chrome://tracing or Perfetto. Each HAM
// node becomes one process row and each simulated process (VH proc, VE
// core, DMA engine) one named thread track under it; simulated picosecond
// timestamps are emitted as microseconds. The output is deterministic for a
// deterministic simulation: events appear ordered by start, process and
// track name — ties in recording order — so when a process records a span
// does not move the bytes, and metadata rows are interleaved at first sight
// of each process/track. When spans were recorded past the tracer's cap, a
// first metadata row, "trace_dropped_spans", says how many the array lacks.
func (t *Tracer) ExportChrome(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("trace: exporting from a nil tracer")
	}
	spans := t.Spans()
	slices.SortStableFunc(spans, func(a, b Span) int {
		return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.Node, b.Node), cmp.Compare(trackName(a.Tid), trackName(b.Tid)))
	})
	pids := map[int]bool{}
	type trackKey struct {
		pid  int
		name string
	}
	tids := map[trackKey]int{}
	var events []chromeEvent
	if n := t.Dropped(); n > 0 {
		events = append(events, chromeEvent{
			Name: "trace_dropped_spans", Ph: "M", Pid: chromePid(NodeInfra),
			Args: map[string]any{"dropped": n, "limit": t.limit},
		})
	}
	pidOf := func(s Span) int {
		pid := chromePid(s.Node)
		if !pids[pid] {
			pids[pid] = true
			label := "infra"
			if s.Node != NodeInfra {
				label = fmt.Sprintf("node %d", s.Node)
				if s.Backend != "" {
					label += " (" + s.Backend + ")"
				}
			}
			events = append(events, chromeEvent{
				Name: "process_name", Ph: "M", Pid: pid,
				Args: map[string]any{"name": label},
			})
			events = append(events, chromeEvent{
				Name: "process_sort_index", Ph: "M", Pid: pid,
				Args: map[string]any{"sort_index": pid},
			})
		}
		return pid
	}
	tidOf := func(pid int, name string) int {
		name = trackName(name)
		key := trackKey{pid, name}
		id, ok := tids[key]
		if !ok {
			id = len(tids) + 1
			tids[key] = id
			events = append(events, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: id,
				Args: map[string]any{"name": name},
			})
		}
		return id
	}
	for _, s := range spans {
		pid := pidOf(s)
		tid := tidOf(pid, s.Tid)
		var args map[string]any
		if s.Phase != "" || s.MsgID >= 0 {
			args = map[string]any{}
			if s.Phase != "" {
				args["phase"] = string(s.Phase)
			}
			if s.MsgID >= 0 {
				args["msg"] = s.MsgID
			}
		}
		if s.Instant {
			events = append(events, chromeEvent{
				Name: s.Name, Cat: s.Cat, Ph: "i",
				Ts: s.Start.Microseconds(), S: "t",
				Pid: pid, Tid: tid, Args: args,
			})
			continue
		}
		dur := s.Dur().Microseconds()
		if dur <= 0 {
			dur = 0.001
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.Cat, Ph: "X",
			Ts: s.Start.Microseconds(), Dur: dur,
			Pid: pid, Tid: tid, Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(events)
}

// trackName is the name of a span's thread track: its Tid, "main" if none.
func trackName(tid string) string {
	if tid == "" {
		return "main"
	}
	return tid
}
