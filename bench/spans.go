package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files around the public function it calls.
type span struct {
	Name   string
	ID     int
	Parent int // -1 for a root
	Trace  int // one id per operation
	Start  time.Duration
	End    time.Duration
}

// tracer keeps spans in memory until the benchmark ends. A nil *tracer
// records nothing, so the mirror stack runs untraced through the same code.
type tracer struct {
	origin time.Time
	trace  int
	spans  []span
	open   []int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// newTrace starts a new operation: spans begun from now on share its id.
func (t *tracer) newTrace() int {
	if t == nil {
		return 0
	}
	t.trace++
	return t.trace
}

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Trace: t.trace, Start: time.Since(t.origin)})
	t.open = append(t.open, id)
	return id
}

// end closes span id and any span opened inside it that is still open.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.origin)
	for len(t.open) > 0 {
		top := t.open[len(t.open)-1]
		t.open = t.open[:len(t.open)-1]
		t.spans[top].End = now
		if top == id {
			return
		}
	}
}

// ofTrace returns the spans of one operation. Trace ids only grow, so an
// operation's spans are contiguous.
func (t *tracer) ofTrace(trace int) []span {
	lo := sort.Search(len(t.spans), func(i int) bool { return t.spans[i].Trace >= trace })
	hi := lo
	for hi < len(t.spans) && t.spans[hi].Trace == trace {
		hi++
	}
	return t.spans[lo:hi]
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its children cover (overlapping children count once).
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered time.Duration
		cur, curEnd := time.Duration(-1), time.Duration(-1)
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				covered += curEnd - cur
				cur, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		covered += curEnd - cur
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// spanTotals sums duration and self time per span name.
type spanTotal struct {
	Dur, Self time.Duration
	Count     int
}

func totalsByName(spans []span) map[string]spanTotal {
	self := selfTimes(spans)
	out := make(map[string]spanTotal)
	for _, s := range spans {
		t := out[s.Name]
		t.Dur += s.End - s.Start
		t.Self += self[s.ID]
		t.Count++
		out[s.Name] = t
	}
	return out
}

// writeChrome writes every span as a Chrome trace-event JSON file
// (chrome://tracing, Perfetto): one lane per operation.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		evs = append(evs, event{
			Name: s.Name, Ph: "X",
			TS:  float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3,
			PID: 1, TID: s.Trace,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "trace": s.Trace},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("bench: writing spans: %w", err)
	}
	return nil
}
