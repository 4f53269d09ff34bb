// Package telemetry is the harness's process-wide observability layer:
// a lock-free metrics registry (atomic counters, gauges, and
// log-bucketed histograms with single-goroutine local shards merged at
// collection), span tracing exportable as Chrome trace-event JSON
// (chrome://tracing / Perfetto), and a per-invocation run manifest
// recording how a run executed — config, build info, per-cell timings,
// and a final metric snapshot.
//
// Everything is off by default and costs nothing when off: the hot
// paths (the replay loop at ~200M events/sec, the MMU walk machinery)
// test one cached nil pointer and do no work unless a run is active.
// When active, hot-path recording is batched (one atomic add per
// 4096-event replay block) or thread-local (non-atomic Local histograms
// owned by one simulation cell, merged into the shared registry once at
// cell completion), so enabling telemetry perturbs neither results —
// simulation output stays byte-identical — nor throughput (<2%,
// enforced by BenchmarkTelemetryOverhead* in internal/replay).
//
// Lifecycle: a binary calls StartRun (usually via Flags.Start), the
// instrumented packages record through the package-level entry points
// (StartSpan, Default registry), and the binary writes the trace file
// and manifest at exit (Session.Close). With no active run, StartSpan
// returns an inert Span and Active() reports false.
package telemetry

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// current is the active run; nil means telemetry is off.
var current atomic.Pointer[Run]

// Active reports whether a telemetry run is in progress. Hot-path
// wiring checks it once at setup time (e.g. when an engine or probe is
// built), not per event.
func Active() bool { return current.Load() != nil }

// Current returns the active run, or nil.
func Current() *Run { return current.Load() }

// Run is one observed process invocation: the identity and config of
// the run, the registry collecting its metrics, the optional tracer,
// and the accumulated span timings the manifest reports.
type Run struct {
	Tool      string
	StartTime time.Time
	Config    map[string]string

	tracer *Tracer

	mu      sync.Mutex
	timings []Timing
}

// Timing is one completed cell or section span, relative to run start.
// Section names the report section a cell ran under, when it had one.
type Timing struct {
	Cat     string  `json:"cat"`
	Name    string  `json:"name"`
	Section string  `json:"section,omitempty"`
	StartMS float64 `json:"start_ms"`
	DurMS   float64 `json:"dur_ms"`
}

// StartRun activates telemetry: the default registry is reset for this
// invocation, and spans/metrics record until Stop. config is stamped
// into the manifest verbatim; tracing additionally collects every span
// as a Chrome trace event.
func StartRun(tool string, config map[string]string, tracing bool) *Run {
	r := &Run{Tool: tool, StartTime: time.Now(), Config: config}
	if tracing {
		r.tracer = newTracer(r.StartTime)
	}
	Default().Reset()
	current.Store(r)
	return r
}

// Stop deactivates the run; subsequent spans and hot-path meters become
// no-ops. Safe to call more than once.
func (r *Run) Stop() { current.CompareAndSwap(r, nil) }

// Tracer returns the run's tracer, nil when tracing was not requested.
func (r *Run) Tracer() *Tracer { return r.tracer }

// Timings returns a copy of the cell/section timings recorded so far.
func (r *Run) Timings() []Timing {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Timing(nil), r.timings...)
}

// Span is one timed region. The zero Span (no active run) is inert.
type Span struct {
	r       *Run
	cat     string
	name    string
	section string
	tid     uint64
	start   time.Time
}

// StartSpan opens a span under the active run; with no run it returns
// an inert Span whose End is a no-op. Spans of category "cell" and
// "section" additionally land in the run manifest's timing list.
func StartSpan(cat, name string) Span { return StartSpanIn("", cat, name) }

// StartSpanIn is StartSpan for a span that runs under a named report
// section; its manifest timing carries the section's name.
func StartSpanIn(section, cat, name string) Span {
	r := current.Load()
	if r == nil {
		return Span{}
	}
	return Span{r: r, cat: cat, name: name, section: section, tid: goid(), start: time.Now()}
}

// End closes the span, recording it into the tracer (if tracing) and,
// for cell/section spans, the manifest timing list.
func (s Span) End() {
	if s.r == nil {
		return
	}
	end := time.Now()
	if s.cat == "cell" || s.cat == "section" {
		s.r.mu.Lock()
		s.r.timings = append(s.r.timings, Timing{
			Cat:     s.cat,
			Name:    s.name,
			Section: s.section,
			StartMS: s.start.Sub(s.r.StartTime).Seconds() * 1e3,
			DurMS:   end.Sub(s.start).Seconds() * 1e3,
		})
		s.r.mu.Unlock()
	}
	if t := s.r.tracer; t != nil {
		t.add(s.cat, s.name, s.tid, s.start, end)
	}
}

// goid parses the current goroutine's id from its stack header
// ("goroutine N [...]"). Spans use it as the trace-event thread id so
// nested spans stack on one Perfetto row per worker goroutine; the cost
// (a few µs) is paid once per span, never per event.
func goid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	var id uint64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// Progress aggregates cell completion across every scheduler pool
// sharing it: total grows as pools register cells, done as cells
// complete. The callback is serialized under the progress lock. It
// replaces the scheduler's old ad-hoc Tracker and, while a run is
// active, mirrors its state into the registry gauges
// "sched.cells.done"/"sched.cells.total", so a long run's -listen
// endpoint shows live progress on /snapshot and /metrics (the gauges
// are not expvar variables and do not appear on /debug/vars).
type Progress struct {
	mu          sync.Mutex
	done, total int
	callback    func(done, total int)
}

// NewProgress builds a Progress invoking callback (may be nil) on every
// change.
func NewProgress(callback func(done, total int)) *Progress {
	return &Progress{callback: callback}
}

// Expect registers n upcoming cells. Safe on a nil Progress.
func (p *Progress) Expect(n int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.total += n
	p.publish()
	p.mu.Unlock()
}

// Finish records one completed cell. Safe on a nil Progress.
func (p *Progress) Finish() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.done++
	p.publish()
	p.mu.Unlock()
}

// Snapshot returns the current done/total counts. Safe on nil.
func (p *Progress) Snapshot() (done, total int) {
	if p == nil {
		return 0, 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.done, p.total
}

// publish runs under p.mu.
func (p *Progress) publish() {
	if p.callback != nil {
		p.callback(p.done, p.total)
	}
	if Active() {
		Default().Gauge("sched.cells.done").Set(int64(p.done))
		Default().Gauge("sched.cells.total").Set(int64(p.total))
	}
}
