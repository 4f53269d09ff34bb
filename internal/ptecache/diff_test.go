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

// lockstep drives a Cache and the reference model with the same
// accesses and fails the test at the first access where their costs or
// Stats differ.
type lockstep struct {
	t    *testing.T
	c    *Cache
	r    *refCache
	hits uint64
}

func (l *lockstep) access(step int, phys uint64) {
	l.t.Helper()
	missesBefore := l.r.misses
	got, want := l.c.Access(phys), l.r.access(phys)
	if got != want {
		l.t.Fatalf("step %d: Access(%#x) = %d, reference %d", step, phys, got, want)
	}
	cr, cm := l.c.Stats()
	if cr != l.r.refs || cm != l.r.misses {
		l.t.Fatalf("step %d: stats (refs %d, misses %d), reference (%d, %d)",
			step, cr, cm, l.r.refs, l.r.misses)
	}
	if l.r.misses == missesBefore {
		l.hits++
	}
}

func (l *lockstep) flush() {
	l.c.Flush()
	l.r.flush()
}

// TestCacheMatchesReference runs Cache and the reference model over
// randomized, conflict-heavy address streams with flushes interleaved,
// comparing the returned cost and Stats after every access. The
// geometries cover the shipped Default (8-way) and 1-, 2- and 4-way
// sets, and an 8-way cache of only two sets.
//
// Each geometry runs two streams. The first flushes at random moments.
// The second flushes every hot set while it is only partly refilled,
// then offers each set more lines than it has ways, so a set refills
// and evicts after a flush with whatever recency state the flush left
// behind.
func TestCacheMatchesReference(t *testing.T) {
	geometries := []struct {
		name string
		cfg  Config
	}{
		{"default-8way", Default},
		{"1way", Config{Lines: 16, Ways: 1, HitCycles: 2, MissCycles: 40}},
		{"2way", Config{Lines: 32, Ways: 2, HitCycles: 3, MissCycles: 50}},
		{"4way", Config{Lines: 64, Ways: 4, HitCycles: 5, MissCycles: 90}},
		{"8way-2sets", Config{Lines: 16, Ways: 8, HitCycles: 7, MissCycles: 110}},
	}
	for _, g := range geometries {
		t.Run(g.name, func(t *testing.T) {
			l := &lockstep{t: t, c: New(g.cfg), r: newRefCache(g.cfg)}
			sets := uint64(g.cfg.Lines / g.cfg.Ways)
			ways := uint64(g.cfg.Ways)
			rng := trace.NewRand(uint64(g.cfg.Lines)*17 + ways)
			// Conflict-heavy lines: a few sets, each offered a pool of
			// twice its ways, so every set sees hits, fills and LRU
			// evictions. A sliver of accesses lands anywhere in a 2^58-line
			// physical space (the top of the tag field).
			hotSets := min(sets, 5)
			pool := 2 * ways
			poolLine := func(set uint64) uint64 {
				return set + sets*rng.Uint64n(pool)
			}
			line := func() uint64 {
				if rng.Uint64n(50) == 0 {
					return rng.Uint64n(1 << 58)
				}
				return poolLine(rng.Uint64n(hotSets))
			}
			phys := func(line uint64) uint64 {
				return line<<lineShift | rng.Uint64n(1<<lineShift)
			}
			for step := 0; step < 40000; step++ {
				if rng.Uint64n(1000) == 0 {
					l.flush()
					continue
				}
				l.access(step, phys(line()))
			}
			// A run that rarely hit, or rarely evicted a valid line, would
			// not be testing the probe or the victim choice.
			if l.hits < 1000 || l.r.evictions < 1000 {
				t.Fatalf("random stream too tame: %d hits, %d evictions", l.hits, l.r.evictions)
			}

			// Flush while half full, then overfill: each round fills every
			// hot set with between one and ways/2 lines (hits included),
			// flushes, and then makes 3×ways accesses per set from its
			// pool, interleaving the sets.
			hitsBefore, evictionsBefore := l.hits, l.r.evictions
			step := 0
			for round := 0; round < 400; round++ {
				for set := uint64(0); set < hotSets; set++ {
					for n := 1 + rng.Uint64n(max(ways/2, 1)); n > 0; n-- {
						l.access(step, phys(poolLine(set)))
						step++
					}
				}
				l.flush()
				for n := uint64(0); n < 3*ways*hotSets; n++ {
					l.access(step, phys(poolLine(rng.Uint64n(hotSets))))
					step++
				}
			}
			if l.hits-hitsBefore < 1000 || l.r.evictions-evictionsBefore < 1000 {
				t.Fatalf("flush stream too tame: %d hits, %d evictions",
					l.hits-hitsBefore, l.r.evictions-evictionsBefore)
			}
		})
	}
}
