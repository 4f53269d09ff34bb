package ptecache

import (
	"testing"

	"vdirect/internal/trace"
)

// refLine is one line of the reference model: a plain struct per way,
// no packing and no per-set shortcuts, written so its behaviour can be
// audited by eye. The differential test drives it in lockstep with
// Cache and requires identical costs and counters after every access,
// so any probe or victim-selection trick in Cache must be a pure
// representation change.
type refLine struct {
	valid bool
	line  uint64
	lru   uint64
}

type refCache struct {
	cfg    Config
	sets   int
	lines  []refLine
	clock  uint64
	refs   uint64
	misses uint64
	// evictions counts fills that displaced a valid line, so the test
	// can require that LRU victim selection was exercised.
	evictions uint64
}

func newRefCache(cfg Config) *refCache {
	return &refCache{cfg: cfg, sets: cfg.Lines / cfg.Ways, lines: make([]refLine, cfg.Lines)}
}

func (r *refCache) access(phys uint64) uint64 {
	r.refs++
	r.clock++
	line := phys >> lineShift
	b := int(line%uint64(r.sets)) * r.cfg.Ways
	set := r.lines[b : b+r.cfg.Ways]
	for j := range set {
		if set[j].valid && set[j].line == line {
			set[j].lru = r.clock
			return r.cfg.HitCycles
		}
	}
	r.misses++
	// Victim: the first invalid way, else the least recently used one.
	victim := 0
	for j := range set {
		if !set[j].valid {
			victim = j
			break
		}
		if set[j].lru < set[victim].lru {
			victim = j
		}
	}
	if set[victim].valid {
		r.evictions++
	}
	set[victim] = refLine{valid: true, line: line, lru: r.clock}
	return r.cfg.MissCycles
}

func (r *refCache) flush() {
	for i := range r.lines {
		r.lines[i].valid = false
	}
}

// TestCacheMatchesReference runs Cache and the reference model over
// randomized, conflict-heavy address streams with flushes interleaved,
// comparing the returned cost and Stats after every access. The
// geometries cover the shipped Default (8-way) and 2- and 4-way sets.
func TestCacheMatchesReference(t *testing.T) {
	geometries := []struct {
		name string
		cfg  Config
	}{
		{"default-8way", Default},
		{"2way", Config{Lines: 32, Ways: 2, HitCycles: 3, MissCycles: 50}},
		{"4way", Config{Lines: 64, Ways: 4, HitCycles: 5, MissCycles: 90}},
	}
	for _, g := range geometries {
		t.Run(g.name, func(t *testing.T) {
			c := New(g.cfg)
			r := newRefCache(g.cfg)
			sets := uint64(g.cfg.Lines / g.cfg.Ways)
			rng := trace.NewRand(uint64(g.cfg.Lines)*17 + uint64(g.cfg.Ways))
			// Conflict-heavy lines: a few sets, each offered a pool of
			// twice its ways, so every set sees hits, fills and LRU
			// evictions. A sliver of accesses lands anywhere in a 2^58-line
			// physical space (the top of the tag field).
			hotSets := min(sets, 5)
			pool := uint64(2 * g.cfg.Ways)
			line := func() uint64 {
				if rng.Uint64n(50) == 0 {
					return rng.Uint64n(1 << 58)
				}
				return rng.Uint64n(hotSets) + sets*rng.Uint64n(pool)
			}
			var hits uint64
			for step := 0; step < 40000; step++ {
				if rng.Uint64n(1000) == 0 {
					c.Flush()
					r.flush()
					continue
				}
				phys := line()<<lineShift | rng.Uint64n(1<<lineShift)
				missesBefore := r.misses
				got, want := c.Access(phys), r.access(phys)
				if got != want {
					t.Fatalf("step %d: Access(%#x) = %d, reference %d", step, phys, got, want)
				}
				cr, cm := c.Stats()
				if cr != r.refs || cm != r.misses {
					t.Fatalf("step %d: stats (refs %d, misses %d), reference (%d, %d)",
						step, cr, cm, r.refs, r.misses)
				}
				if r.misses == missesBefore {
					hits++
				}
			}
			// A run that rarely hit, or rarely evicted a valid line, would
			// not be testing the probe or the victim choice.
			if hits < 1000 || r.evictions < 1000 {
				t.Fatalf("stream too tame: %d hits, %d evictions", hits, r.evictions)
			}
		})
	}
}
