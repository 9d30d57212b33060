package main

import (
	"encoding/json"
	"os"
)

// span is one driver-side wall-clock interval of the traced round, recorded
// around a call into a layer's public API. Spans inside the program are the
// program's own trace.Tracer (simulated clock); these are the host-clock
// counterpart, taken from outside.
type span struct {
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  string `json:"parent"`
	Op      int    `json:"op"`
}

type spanTotal struct {
	name  string
	count int64
	ns    int64
}

// spanLog aggregates spans by name and, when keep is set (-trace-out), also
// retains every span for the trace file. A nil log records nothing.
type spanLog struct {
	keep   bool
	spans  []span
	totals []spanTotal // a handful of names; linear search beats a map here
}

// add records the span [start, end), two tick values.
func (l *spanLog) add(name, layer string, start, end int64, parent string, op int) {
	if l == nil {
		return
	}
	if l.keep {
		l.spans = append(l.spans, span{name, layer, start, end, parent, op})
	}
	for i := range l.totals {
		if l.totals[i].name == name {
			l.totals[i].count++
			l.totals[i].ns += end - start
			return
		}
	}
	l.totals = append(l.totals, spanTotal{name, 1, end - start})
}

// ns returns the summed duration of the spans called name.
func (l *spanLog) ns(name string) float64 {
	if l == nil {
		return 0
	}
	for _, t := range l.totals {
		if t.name == name {
			return float64(t.ns)
		}
	}
	return 0
}

func (l *spanLog) write(path string) error {
	data, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
