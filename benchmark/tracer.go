package main

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Spans of one pass or rep share its ID.
type span struct {
	Name   string
	Start  time.Duration // since the tracer's epoch
	End    time.Duration
	Parent int // index of the causing span, -1 for a root
	ID     int // pass or rep
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced run is written.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, parent, id int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.epoch), Parent: parent, ID: id})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = time.Since(t.epoch)
}

// do wraps one call in a span.
func (t *tracer) do(name string, parent, id int, fn func()) {
	i := t.begin(name, parent, id)
	fn()
	t.end(i)
}

// spanTotals is the time under one span name.
type spanTotals struct {
	Name  string
	Count int
	Total time.Duration
	// Self is Total minus the time covered by child spans.
	Self time.Duration
}

// totals sums spans by name, largest self time first.
func (t *tracer) totals() []spanTotals {
	if t == nil {
		return nil
	}
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string]*spanTotals{}
	for i, s := range t.spans {
		st := byName[s.Name]
		if st == nil {
			st = &spanTotals{Name: s.Name}
			byName[s.Name] = st
		}
		d := s.End - s.Start
		st.Count++
		st.Total += d
		st.Self += d - child[i]
	}
	out := make([]spanTotals, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// writeChrome writes the spans of several runs as one Chrome trace_event
// document (complete events; a process per run, a track per pass or
// rep), loadable in Perfetto.
func writeChrome(w io.Writer, runs []*result) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	var doc struct {
		TraceEvents []event `json:"traceEvents"`
	}
	for pid, r := range runs {
		doc.TraceEvents = append(doc.TraceEvents, event{
			Name: "process_name", Ph: "M", Pid: pid + 1,
			Args: map[string]any{"name": r.Workload},
		})
		if r.tr == nil {
			continue
		}
		for i, s := range r.tr.spans {
			doc.TraceEvents = append(doc.TraceEvents, event{
				Name: s.Name, Ph: "X",
				Ts: micros(s.Start), Dur: micros(s.End - s.Start),
				Pid: pid + 1, Tid: s.ID,
				Args: map[string]any{"span": i, "parent": s.Parent},
			})
		}
	}
	return json.NewEncoder(w).Encode(doc)
}
