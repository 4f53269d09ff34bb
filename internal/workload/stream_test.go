package workload

import (
	"testing"

	"vdirect/internal/trace"
)

// eagerGUPS is the pre-streaming GUPS construction, kept verbatim as
// the reference: the streaming generator must emit a bit-identical
// event sequence or every downstream golden result shifts.
func eagerGUPS(cfg Config) Workload {
	cfg = cfg.withDefaults()
	tableBytes := uint64(cfg.MemoryMB) << 20
	elems := tableBytes / 8
	b := newBuilder(cfg)
	b.setStackEvery(256)
	for !b.full() {
		idx := b.rng.Uint64n(elems)
		va := PrimaryBase + idx*8
		if !b.read(va) {
			break
		}
		b.write(va)
	}
	return b.finish("gups", 56, primarySpan(tableBytes))
}

// TestGUPSStreamMatchesBuilder holds the streaming generator and the
// eager builder together event-for-event, across configs chosen to hit
// the edge cases of the access-budget state machine (op counts on and
// off the 256-access stack-sprinkle boundary, odd counts that end the
// trace between the read and write halves of an update).
func TestGUPSStreamMatchesBuilder(t *testing.T) {
	configs := []Config{
		{Seed: 1, MemoryMB: 64, Ops: 200000},
		{Seed: 1, MemoryMB: 64, Ops: 400000},
		{Seed: 7, MemoryMB: 8, Ops: 256},
		{Seed: 7, MemoryMB: 8, Ops: 257},
		{Seed: 9, MemoryMB: 16, Ops: 511},
		{Seed: 9, MemoryMB: 16, Ops: 512},
		{Seed: 3, MemoryMB: 32, Ops: 1},
		{Seed: 3, MemoryMB: 32, Ops: 2},
		{Seed: 5, MemoryMB: 1, Ops: 10000},
	}
	for _, cfg := range configs {
		want := eagerGUPS(cfg)
		got := New("gups", cfg)
		if _, ok := got.(*gupsStream); !ok {
			t.Fatalf("gups %+v: not the streaming generator (%T)", cfg, got)
		}
		comparePerEvent(t, cfg, want, got)
		if w, g := want.AccessCount(), got.AccessCount(); w != g {
			t.Errorf("gups %+v: AccessCount %d, reference %d", cfg, g, w)
		}
		if w, g := want.PrimaryRegion(), got.PrimaryRegion(); w != g {
			t.Errorf("gups %+v: PrimaryRegion %v, reference %v", cfg, g, w)
		}
		// Second pass after Reset must replay identically, and the block
		// path must agree with the per-event path at awkward block sizes.
		want.Reset()
		got.Reset()
		compareBlocks(t, cfg, want, got, 3)
		want.Reset()
		got.Reset()
		compareBlocks(t, cfg, want, got, 4096)
	}
}

func comparePerEvent(t *testing.T, cfg Config, want, got Workload) {
	t.Helper()
	for i := 0; ; i++ {
		we, wok := want.Next()
		ge, gok := got.Next()
		if wok != gok {
			t.Fatalf("gups %+v event %d: ok=%v, reference %v", cfg, i, gok, wok)
		}
		if !wok {
			return
		}
		if we != ge {
			t.Fatalf("gups %+v event %d: %+v, reference %+v", cfg, i, ge, we)
		}
	}
}

// compareBlocks streams got through NextBlock with the given block
// size and checks the concatenation against want's per-event stream.
func compareBlocks(t *testing.T, cfg Config, want, got Workload, block int) {
	t.Helper()
	bg, ok := got.(trace.BlockGenerator)
	if !ok {
		t.Fatalf("gups %+v: streaming generator is not a BlockGenerator", cfg)
	}
	buf := make([]trace.Event, block)
	i := 0
	for {
		n := bg.NextBlock(buf)
		if n == 0 {
			break
		}
		for _, ge := range buf[:n] {
			we, wok := want.Next()
			if !wok {
				t.Fatalf("gups %+v block=%d: block path emitted extra event %d (%+v)", cfg, block, i, ge)
			}
			if we != ge {
				t.Fatalf("gups %+v block=%d event %d: %+v, reference %+v", cfg, block, i, ge, we)
			}
			i++
		}
	}
	if _, wok := want.Next(); wok {
		t.Fatalf("gups %+v block=%d: block path ended early at event %d", cfg, block, i)
	}
}

// TestBuilderStackPeriod holds builder.access's stack countdown to the
// rule it replaces: a stack access follows the data access that brings
// the access count (stack accesses included) to a multiple of the
// period. Periods 1 to 3 cover the countdown's reset edge cases.
func TestBuilderStackPeriod(t *testing.T) {
	for _, period := range []int{0, 1, 2, 3, 64, 256} {
		b := newBuilder(Config{Seed: 3, Ops: 2000})
		b.setStackEvery(period)
		var want []bool // per event: is it a stack access?
		accesses := 0
		for i := 0; !b.full(); i++ {
			b.read(PrimaryBase + uint64(i)*8)
			want = append(want, false)
			accesses++
			if period > 0 && accesses%period == 0 {
				want = append(want, true)
				accesses++
			}
		}
		if len(b.evs) != len(want) {
			t.Fatalf("period %d: %d events, want %d", period, len(b.evs), len(want))
		}
		for i, ev := range b.evs {
			if stack := ev.VA >= StackBase && ev.VA < StackBase+StackSize; stack != want[i] {
				t.Fatalf("period %d: event %d stack=%v, want %v", period, i, stack, want[i])
			}
		}
	}
}
