// Package replay owns the trace-replay loop every experiment drives:
// it streams a workload's events through caller-supplied hooks, with
// warmup accounting, in blocks rather than one interface call per
// event. The figure runner, the shadow-paging study, the consolidation
// study, the host model and the tracestat tool are thin hook
// configurations of this one loop, so warmup reset, fault service and
// alloc/free handling cannot drift apart between them.
//
// Hot-path design: the engine fills a reusable buffer of BlockSize
// events per trace.BlockGenerator call (one interface dispatch per
// ~4K events instead of one per event) and then iterates a plain
// slice. Generators that only implement trace.Generator still work
// through the per-event shim in trace.FillBlock — the golden
// equivalence tests replay both paths and demand identical results.
package replay

import (
	"vdirect/internal/telemetry"
	"vdirect/internal/trace"
)

// DefaultBlockSize is the events-per-refill the engine uses unless
// configured otherwise, large enough to amortize the refill dispatch to
// noise. 4096 events × 24 bytes ≈ 96 KiB is twice a 48 KiB L1d, so the
// buffer lives in L2, not L1. Each event is read once, in order, soon
// after NextBlock wrote it, and blocks of 512–2048 events, which fit an
// L1d, measured no faster on cactus-hit (EXPERIMENTS.md, "Packed
// traces").
const DefaultBlockSize = 4096

// Hooks are the engine's extension points. Nil hooks are skipped, so
// a study that ignores Alloc events (as most do) simply leaves Alloc
// nil; an observation-only consumer like tracestat sets just Access
// and Alloc. A hook returning an error aborts the replay immediately
// with the cursor positioned after the failing event.
type Hooks struct {
	// Access services one data reference — typically an MMU translate
	// with demand-paging retry. ev.Kind is always trace.Access.
	Access func(ev trace.Event) error
	// AccessBlock, when non-nil, takes precedence over Access and
	// services a run of consecutive Access events in one call — the
	// batch entry into MMU.TranslateBlock, eliminating one hook dispatch
	// per event. It returns how many events completed; on error, done
	// names the failing event's index and events [0, done) counted as
	// serviced. The engine cuts runs at the warmup boundary and the Step
	// limit, so a hook never sees a run spanning either. The failing
	// event is consumed, exactly as a failing Access is.
	AccessBlock func(evs []trace.Event) (done int, err error)
	// Alloc observes an mmap/brk event (pages fault in on first touch,
	// so most consumers leave this nil).
	Alloc func(ev trace.Event) error
	// Free handles an unmap event — typically guest-PT unmap plus TLB
	// invalidation. Nil means unmaps are ignored.
	Free func(ev trace.Event) error
	// Warmup fires exactly once at the measurement boundary: after the
	// WarmupAccesses-th access has been serviced, or before the first
	// event when WarmupAccesses is 0 (a warmup fraction that rounds to
	// zero measures the whole trace). Consumers reset statistics here.
	Warmup func()
}

// Config sizes the engine.
type Config struct {
	// BlockSize is the events-per-refill; 0 means DefaultBlockSize.
	BlockSize int
	// WarmupAccesses is the number of serviced accesses before the
	// Warmup hook fires; accesses after it count as measured.
	WarmupAccesses uint64
}

// Counts reports what a replay processed.
type Counts struct {
	// Events is every trace event consumed, of any kind.
	Events uint64
	// Accesses is the number of serviced Access events.
	Accesses uint64
	// Measured is the accesses after the warmup boundary (all of them
	// when WarmupAccesses is 0).
	Measured uint64
}

// Engine drives one generator through one set of hooks. It is single-
// goroutine state, like the simulation stack it feeds; concurrent
// cells each build their own engine (see internal/sched).
type Engine struct {
	g   trace.Generator
	h   Hooks
	buf []trace.Event
	pos int // next unconsumed event in buf
	n   int // valid events in buf

	warmupAt  uint64
	started   bool
	exhausted bool
	counts    Counts

	// meter streams the engine's event count into the telemetry
	// registry ("replay.events"), one atomic add per refilled block —
	// never per event. nil when no telemetry run is active, which costs
	// the hot path nothing beyond this nil check per ~4K events.
	meter *telemetry.Counter
}

// New builds an engine over g. The generator should be freshly Reset;
// the engine consumes it from its current cursor.
func New(g trace.Generator, h Hooks, cfg Config) *Engine {
	bs := cfg.BlockSize
	if bs <= 0 {
		bs = DefaultBlockSize
	}
	e := &Engine{
		g:        g,
		h:        h,
		buf:      make([]trace.Event, bs),
		warmupAt: cfg.WarmupAccesses,
	}
	if telemetry.Active() {
		e.meter = telemetry.Default().Counter("replay.events")
	}
	return e
}

// Counts reports progress so far; valid mid-replay (between Steps) and
// after Run.
func (e *Engine) Counts() Counts { return e.counts }

// Run drains the remainder of the trace through the hooks.
func (e *Engine) Run() error {
	_, _, err := e.Step(0)
	return err
}

// Step services up to limit Access events (every remaining event when
// limit <= 0) and returns the number serviced plus whether the trace
// has more events. Non-access events encountered along the way are
// processed but do not count toward the limit — this is the
// consolidation study's and the host model's scheduling quantum,
// measured in accesses.
func (e *Engine) Step(limit int) (serviced int, more bool, err error) {
	if !e.started {
		e.started = true
		if e.warmupAt == 0 && e.h.Warmup != nil {
			e.h.Warmup()
		}
	}
	for limit <= 0 || serviced < limit {
		if e.pos >= e.n && !e.refill() {
			return serviced, false, nil
		}
		// Iterate the buffered block as a plain slice: no interface
		// dispatch, and the bounds check hoists out of the common case.
		block := e.buf[e.pos:e.n]
		for i := 0; i < len(block); {
			ev := block[i]
			if ev.Kind == trace.Access && e.h.AccessBlock != nil {
				// Batch path: hand the maximal run of consecutive Access
				// events — cut at the warmup boundary and the Step limit
				// so per-access bookkeeping stays hook-free.
				j := i + 1
				for j < len(block) && block[j].Kind == trace.Access {
					j++
				}
				n := j - i
				if e.counts.Accesses < e.warmupAt {
					if room := e.warmupAt - e.counts.Accesses; uint64(n) > room {
						n = int(room)
					}
				}
				if limit > 0 {
					if room := limit - serviced; n > room {
						n = room
					}
				}
				measured := e.counts.Accesses >= e.warmupAt
				done, err := e.h.AccessBlock(block[i : i+n])
				e.counts.Events += uint64(done)
				e.counts.Accesses += uint64(done)
				serviced += done
				if measured {
					e.counts.Measured += uint64(done)
				}
				if err != nil {
					e.counts.Events++ // the failing event is consumed
					e.pos += i + done + 1
					return serviced, true, err
				}
				if done > 0 && e.counts.Accesses == e.warmupAt && e.h.Warmup != nil {
					e.h.Warmup()
				}
				i += done
				if limit > 0 && serviced >= limit {
					e.pos += i
					return serviced, true, nil
				}
				continue
			}
			e.counts.Events++
			switch ev.Kind {
			case trace.Access:
				if e.h.Access != nil {
					if err := e.h.Access(ev); err != nil {
						e.pos += i + 1
						return serviced, true, err
					}
				}
				e.counts.Accesses++
				serviced++
				if e.counts.Accesses == e.warmupAt && e.h.Warmup != nil {
					e.h.Warmup()
				}
				if e.counts.Accesses > e.warmupAt {
					e.counts.Measured++
				}
				if limit > 0 && serviced >= limit {
					e.pos += i + 1
					return serviced, true, nil
				}
			case trace.Alloc:
				if e.h.Alloc != nil {
					if err := e.h.Alloc(ev); err != nil {
						e.pos += i + 1
						return serviced, true, err
					}
				}
			case trace.Free:
				if e.h.Free != nil {
					if err := e.h.Free(ev); err != nil {
						e.pos += i + 1
						return serviced, true, err
					}
				}
			}
			i++
		}
		e.pos = e.n
	}
	return serviced, true, nil
}

// refill pulls the next block from the generator; false means the
// trace is exhausted.
func (e *Engine) refill() bool {
	if e.exhausted {
		return false
	}
	e.n = trace.FillBlock(e.g, e.buf)
	e.pos = 0
	if e.n == 0 {
		e.exhausted = true
		return false
	}
	if e.meter != nil {
		e.meter.Add(uint64(e.n))
	}
	return true
}
