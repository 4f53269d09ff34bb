package replay

import (
	"errors"
	"fmt"
	"testing"

	"vdirect/internal/trace"
)

// blockObserver is an AccessBlock hook that records every event and the
// run lengths the engine hands it, always completing the whole run.
type blockObserver struct {
	events []trace.Event
	runs   []int
}

func (o *blockObserver) hook(evs []trace.Event) (int, error) {
	o.events = append(o.events, evs...)
	o.runs = append(o.runs, len(evs))
	return len(evs), nil
}

// TestEngineAccessBlockMatchesPerEvent replays the same trace through
// the batch hook and the per-event hook and demands the identical event
// stream and counters — the engine-level face of the golden equivalence
// the MMU tests pin at the TranslateBlock level.
func TestEngineAccessBlockMatchesPerEvent(t *testing.T) {
	evs := script(40)

	var perEvent []trace.Event
	obs := func(ev trace.Event) error { perEvent = append(perEvent, ev); return nil }
	ref := New(trace.NewSlice("s", evs), Hooks{Access: obs, Alloc: obs, Free: obs},
		Config{BlockSize: 7, WarmupAccesses: 11})
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}

	var bo blockObserver
	other := func(ev trace.Event) error { bo.events = append(bo.events, ev); return nil }
	blk := New(trace.NewSlice("s", evs), Hooks{AccessBlock: bo.hook, Alloc: other, Free: other},
		Config{BlockSize: 7, WarmupAccesses: 11})
	if err := blk.Run(); err != nil {
		t.Fatal(err)
	}

	if len(bo.events) != len(perEvent) {
		t.Fatalf("block path observed %d events, per-event %d", len(bo.events), len(perEvent))
	}
	for i := range perEvent {
		if bo.events[i] != perEvent[i] {
			t.Fatalf("event %d: block %+v, per-event %+v", i, bo.events[i], perEvent[i])
		}
	}
	if ref.Counts() != blk.Counts() {
		t.Errorf("counts diverge: per-event %+v, block %+v", ref.Counts(), blk.Counts())
	}
	// Batching must actually batch: with alloc/free noise every 4
	// accesses the runs are length 4 (modulo block-refill and warmup
	// cuts), never all singletons.
	if len(bo.runs) >= int(blk.Counts().Accesses) {
		t.Errorf("%d hook calls for %d accesses — batch path degenerated to per-event",
			len(bo.runs), blk.Counts().Accesses)
	}
}

// TestEngineAccessBlockWarmupCut pins the documented contract that a
// hook never sees a run spanning the warmup boundary, so MMU stats
// resets in Warmup can't split a batch's accounting.
func TestEngineAccessBlockWarmupCut(t *testing.T) {
	// One long run of 30 accesses; warmup at 13 falls mid-run.
	var evs []trace.Event
	for i := 0; i < 30; i++ {
		evs = append(evs, trace.Event{Kind: trace.Access, VA: 0x1000})
	}
	var before []uint64 // accesses serviced before each hook call
	var warmupAt uint64 = 13
	var total uint64
	var firedAt uint64
	e := New(trace.NewSlice("s", evs), Hooks{
		AccessBlock: func(evs []trace.Event) (int, error) {
			before = append(before, total)
			total += uint64(len(evs))
			return len(evs), nil
		},
		Warmup: func() { firedAt = total },
	}, Config{WarmupAccesses: warmupAt, BlockSize: 64})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, b := range before {
		end := total
		if i+1 < len(before) {
			end = before[i+1]
		}
		if b < warmupAt && end > warmupAt {
			t.Errorf("hook call %d spans warmup boundary: [%d, %d) across %d", i, b, end, warmupAt)
		}
	}
	if firedAt != warmupAt {
		t.Errorf("warmup fired after %d accesses, want %d", firedAt, warmupAt)
	}
	if c := e.Counts(); c.Accesses != 30 || c.Measured != 30-warmupAt {
		t.Errorf("counts = %+v", c)
	}
}

// TestEngineAccessBlockStepQuantum pins that the Step limit cuts runs:
// the scheduling quantum stays exact under the batch hook.
func TestEngineAccessBlockStepQuantum(t *testing.T) {
	var bo blockObserver
	e := New(trace.NewSlice("s", script(20)), Hooks{AccessBlock: bo.hook}, Config{BlockSize: 64})
	var steps []int
	for {
		n, more, err := e.Step(6)
		if err != nil {
			t.Fatal(err)
		}
		if n > 0 {
			steps = append(steps, n)
		}
		if !more {
			break
		}
	}
	if want := []int{6, 6, 6, 2}; fmt.Sprint(steps) != fmt.Sprint(want) {
		t.Errorf("quantum steps = %v, want %v", steps, want)
	}
	for i, n := range bo.runs {
		if n > 6 {
			t.Errorf("hook call %d got a run of %d, exceeding the quantum of 6", i, n)
		}
	}
	if c := e.Counts(); c.Accesses != 20 {
		t.Errorf("counts = %+v", c)
	}
}

// TestEngineAccessBlockErrorConsumed pins fault semantics: on a hook
// error the events [0, done) count as serviced, the failing event is
// consumed, and a subsequent Step resumes immediately after it —
// mirroring how a failing Access is consumed on the per-event path.
func TestEngineAccessBlockErrorConsumed(t *testing.T) {
	boom := errors.New("boom")
	evs := script(12) // 12 accesses + 3 alloc/free pairs = 18 events
	calls := 0
	var resumed []trace.Event
	e := New(trace.NewSlice("s", evs), Hooks{
		AccessBlock: func(run []trace.Event) (int, error) {
			calls++
			if calls == 1 {
				return 2, boom // fail on the 3rd access of the first run
			}
			resumed = append(resumed, run...)
			return len(run), nil
		},
	}, Config{BlockSize: 64})

	n, more, err := e.Step(0)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n != 2 || !more {
		t.Fatalf("Step = (%d, %v), want (2, true)", n, more)
	}
	// 2 serviced + 1 failing event consumed.
	if c := e.Counts(); c.Events != 3 || c.Accesses != 2 {
		t.Fatalf("counts after fault = %+v", c)
	}

	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// The resumed stream starts at the 4th access (index 3 in script
	// order): the failing 3rd access was consumed, not retried.
	if len(resumed) == 0 || resumed[0] != evs[3] {
		t.Fatalf("resume started at %+v, want %+v", resumed[0], evs[3])
	}
	if c := e.Counts(); c.Events != uint64(len(evs)) || c.Accesses != 11 {
		t.Errorf("final counts = %+v, want %d events / 11 accesses", c, len(evs))
	}
}
