package ptecache

import (
	"testing"

	"vdirect/internal/trace"
)

func TestHitMissCosts(t *testing.T) {
	c := New(Config{Lines: 16, Ways: 2, HitCycles: 10, MissCycles: 100})
	if cost := c.Access(0x1000); cost != 100 {
		t.Errorf("cold access cost = %d, want 100", cost)
	}
	if cost := c.Access(0x1000); cost != 10 {
		t.Errorf("warm access cost = %d, want 10", cost)
	}
	// Same 64B line: different PTE, same line → hit.
	if cost := c.Access(0x1008); cost != 10 {
		t.Errorf("same-line access cost = %d, want 10", cost)
	}
	// Next line misses.
	if cost := c.Access(0x1040); cost != 100 {
		t.Errorf("next-line access cost = %d, want 100", cost)
	}
	refs, misses := c.Stats()
	if refs != 4 || misses != 2 {
		t.Errorf("stats = %d refs, %d misses", refs, misses)
	}
}

func TestEvictionUnderConflict(t *testing.T) {
	// 4 sets x 2 ways. Lines 0, 4, 8 (i.e. addresses 0, 0x100, 0x200) all
	// land in set 0.
	c := New(Config{Lines: 8, Ways: 2, HitCycles: 1, MissCycles: 10})
	c.Access(0x000)
	c.Access(0x100)
	c.Access(0x000) // refresh line 0
	c.Access(0x200) // evicts line at 0x100 (LRU)
	if cost := c.Access(0x000); cost != 1 {
		t.Error("MRU line evicted")
	}
	if cost := c.Access(0x100); cost != 10 {
		t.Error("LRU line survived")
	}
}

func TestFlush(t *testing.T) {
	c := New(Default)
	c.Access(0x5000)
	c.Flush()
	if cost := c.Access(0x5000); cost != Default.MissCycles {
		t.Error("flush did not invalidate")
	}
}

// TestBadGeometryPanics: a line count that is not a multiple of the
// ways, a set count that is not a power of two (3 and 7 sets), and more
// ways than a recency word can order are rejected when the cache is
// built.
func TestBadGeometryPanics(t *testing.T) {
	for _, cfg := range []Config{
		{Lines: 7, Ways: 2},
		{Lines: 0, Ways: 2},
		{Lines: 8, Ways: 0},
		{Lines: 12, Ways: 4},
		{Lines: 56, Ways: 8},
		{Lines: 18, Ways: 9},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

// word packs a recency order, most recent way first, into a recency
// word with 0xF in the unused nibbles.
func word(ways []uint32) uint32 {
	w := ^uint32(0) << (4 * len(ways))
	for i, way := range ways {
		w |= way << (4 * i)
	}
	return w
}

// TestTouch moves every way of an 8-way word from every one of the eight
// positions to the front and checks the word against the order a slice
// move-to-front gives; then it checks that after eight distinct touches
// the last nibble holds the first way touched, and that a 3-way word
// keeps 0xF in its unused nibbles.
func TestTouch(t *testing.T) {
	for way := uint32(0); way < 8; way++ {
		for pos := 0; pos < 8; pos++ {
			// The other ways in a scrambled order, with way at pos.
			var order []uint32
			for i := uint32(0); i < 8; i++ {
				if o := (i*5 + 3) % 8; o != way {
					order = append(order, o)
				}
			}
			order = append(order[:pos], append([]uint32{way}, order[pos:]...)...)
			want := append([]uint32{way}, append(order[:pos:pos], order[pos+1:]...)...)
			if got := touch(word(order), way); got != word(want) {
				t.Errorf("touch(%#08x, %d) = %#08x, want %#08x", word(order), way, got, word(want))
			}
		}
	}

	w := word([]uint32{0, 1, 2, 3, 4, 5, 6, 7})
	touched := []uint32{5, 2, 7, 0, 3, 6, 1, 4}
	for _, way := range touched {
		w = touch(w, way)
	}
	if lru := w >> 28; lru != touched[0] {
		t.Errorf("LRU nibble after %v = %d, want %d", touched, lru, touched[0])
	}
	if want := word([]uint32{4, 1, 6, 3, 0, 7, 2, 5}); w != want {
		t.Errorf("word after %v = %#08x, want %#08x", touched, w, want)
	}

	if got, want := touch(word([]uint32{0, 1, 2}), 2), word([]uint32{2, 0, 1}); got != want {
		t.Errorf("3-way touch = %#08x, want %#08x", got, want)
	}
}

func TestDenseVsRandomMissRates(t *testing.T) {
	// Streaming PTE reads (dense walk) must enjoy a far lower miss rate
	// than random reads over a large span — the effect that separates
	// sequential workloads from GUPS.
	dense := New(Default)
	for a := uint64(0); a < 1<<20; a += 8 {
		dense.Access(a)
	}
	_, denseMisses := dense.Stats()
	denseRefs := uint64(1<<20) / 8

	random := New(Default)
	r := trace.NewRand(1)
	for i := uint64(0); i < denseRefs; i++ {
		random.Access(r.Uint64n(1 << 34))
	}
	_, randMisses := random.Stats()

	denseRate := float64(denseMisses) / float64(denseRefs)
	randRate := float64(randMisses) / float64(denseRefs)
	if denseRate > 0.2 {
		t.Errorf("dense miss rate = %.3f, want ~1/8", denseRate)
	}
	if randRate < 0.9 {
		t.Errorf("random miss rate = %.3f, want ~1", randRate)
	}
}
