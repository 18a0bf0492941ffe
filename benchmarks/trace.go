package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// tracer holds the spans of one traced pass in memory. The harness
// records a span around each call it makes into a layer's public API;
// nothing inside the program under test is instrumented. A nil tracer
// records nothing, so the same code paths run traced and untraced.
type tracer struct {
	workload string
	epoch    time.Time

	mu    sync.Mutex
	spans []span
}

type span struct {
	Name       string
	Lane       int // display row: 0 is the harness's own goroutine
	Parent     int // index into spans, -1 at top level
	Start, End time.Duration
}

// handle is an open span. It keeps its own start time so that end()
// returns the duration even when no tracer is recording.
type handle struct {
	t     *tracer
	id    int
	start time.Time
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// begin opens a span under parent (nil for top level) on display row lane.
func (t *tracer) begin(parent *handle, lane int, name string) *handle {
	h := &handle{t: t, id: -1, start: time.Now()}
	if t == nil {
		return h
	}
	pid := -1
	if parent != nil {
		pid = parent.id
	}
	t.mu.Lock()
	h.id = len(t.spans)
	t.spans = append(t.spans, span{Name: name, Lane: lane, Parent: pid, Start: h.start.Sub(t.epoch), End: -1})
	t.mu.Unlock()
	return h
}

// end closes the span and returns its duration.
func (h *handle) end() time.Duration {
	now := time.Now()
	if h.t != nil {
		h.t.mu.Lock()
		h.t.spans[h.id].End = now.Sub(h.t.epoch)
		h.t.mu.Unlock()
	}
	return now.Sub(h.start)
}

// selfTimes returns, per span, its duration minus the part of that
// interval its child spans cover (children may overlap one another when
// they ran on different goroutines; covered time is their union).
func (t *tracer) selfTimes() []time.Duration {
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		covered, reach := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := max(t.spans[k].Start, reach), min(t.spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// writeTable prints the per-span-name table: calls, total and self time.
func (t *tracer) writeTable(w io.Writer) {
	type row struct {
		name        string
		n           int
		total, self time.Duration
	}
	self := t.selfTimes()
	byName := map[string]*row{}
	var rows []*row
	for i, s := range t.spans {
		r := byName[s.Name]
		if r == nil {
			r = &row{name: s.Name}
			byName[s.Name] = r
			rows = append(rows, r)
		}
		r.n++
		r.total += s.End - s.Start
		r.self += self[i]
	}
	fmt.Fprintf(w, "%-34s %8s %12s %12s\n", "span", "calls", "total_s", "self_s")
	for _, r := range rows {
		fmt.Fprintf(w, "%-34s %8d %12.6f %12.6f\n", r.name, r.n, r.total.Seconds(), r.self.Seconds())
	}
}

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or ui.perfetto.dev). The category is the layer, i.e.
// the span name up to its first dot.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	self := t.selfTimes()
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		events[i] = event{
			Name: s.Name, Cat: layer, Ph: "X",
			TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			PID: 1, TID: s.Lane,
			Args: map[string]any{"id": i, "parent": s.Parent, "workload": t.workload, "self_us": float64(self[i]) / 1e3},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
