package workload

import (
	"fmt"
	"sync"
	"testing"

	"vdirect/internal/trace"
)

var cursorCfg = Config{Seed: 5, MemoryMB: 8, Ops: 5000}

// events replays w from its current position to the end, block by
// block.
func events(w Workload, block int) []trace.Event {
	var out []trace.Event
	buf := make([]trace.Event, block)
	for {
		n := trace.FillBlock(w, buf)
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
	}
}

func sameEvents(t *testing.T, what string, got, want []trace.Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d events, fresh build %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: event %d is %+v, fresh build %+v", what, i, got[i], want[i])
		}
	}
}

// TestCursorsReadIndependently reads two cursors of one built trace in
// turns, a block from one then a block from the other. Each must emit
// exactly the events of a fresh build: a cursor that shared its read
// position with another reader would hand each half the trace.
func TestCursorsReadIndependently(t *testing.T) {
	for _, name := range Names() {
		want := events(New(name, cursorCfg), 4096)
		shared := New(name, cursorCfg)
		for _, block := range []int{1, 3, 4096} {
			a, b := shared.Cursor(), shared.Cursor()
			if a.AccessCount() != shared.AccessCount() || a.Name() != name {
				t.Fatalf("%s: cursor reports %s with %d accesses, trace %d",
					name, a.Name(), a.AccessCount(), shared.AccessCount())
			}
			var gotA, gotB []trace.Event
			buf := make([]trace.Event, block)
			for doneA, doneB := false, false; !doneA || !doneB; {
				n := trace.FillBlock(a, buf)
				gotA, doneA = append(gotA, buf[:n]...), n == 0
				n = trace.FillBlock(b, buf)
				gotB, doneB = append(gotB, buf[:n]...), n == 0
			}
			sameEvents(t, name+" cursor a", gotA, want)
			sameEvents(t, name+" cursor b", gotB, want)
		}
	}
}

// TestCursorsReplayConcurrently replays cursors of one built trace on
// separate goroutines, as the experiment drivers' cells do; under
// -race it fails if a cursor writes anything the trace shares.
func TestCursorsReplayConcurrently(t *testing.T) {
	for _, name := range Names() {
		want := events(New(name, cursorCfg), 4096)
		shared := New(name, cursorCfg)
		blocks := []int{1, 3, 4096}
		got := make([][]trace.Event, len(blocks))
		var wg sync.WaitGroup
		for i, block := range blocks {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = events(shared.Cursor(), block)
			}()
		}
		wg.Wait()
		for i, block := range blocks {
			sameEvents(t, fmt.Sprintf("%s concurrent cursor, block %d", name, block), got[i], want)
		}
	}
}
