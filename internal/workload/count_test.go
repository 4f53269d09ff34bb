package workload

import (
	"testing"

	"vdirect/internal/trace"
)

// TestAccessCountMatchesReplay pins the access count — counted while an
// eager trace is built, closed-form for gups — which the experiment
// harness uses to place warmup boundaries without a counting replay, to
// what a replay actually emits. The small budgets sit on and around the
// stack-sprinkle periods (64 for the eager builders, 256 for gups),
// where a count that drops or misplaces a sprinkle is off by one.
func TestAccessCountMatchesReplay(t *testing.T) {
	for _, name := range Names() {
		for _, ops := range []int{1, 2, 63, 64, 65, 255, 256, 257, 512, 20000} {
			w := New(name, Config{Seed: 3, MemoryMB: 16, Ops: ops})
			var replayed uint64
			for {
				ev, ok := w.Next()
				if !ok {
					break
				}
				if ev.Kind == trace.Access {
					replayed++
				}
			}
			if got := w.AccessCount(); got != replayed {
				t.Errorf("%s Ops=%d: AccessCount() = %d, replay emitted %d", name, ops, got, replayed)
			}
			// The count must not depend on the read cursor.
			w.Reset()
			if got := w.AccessCount(); got != replayed {
				t.Errorf("%s Ops=%d: AccessCount() after Reset = %d, want %d", name, ops, got, replayed)
			}
		}
	}
}
