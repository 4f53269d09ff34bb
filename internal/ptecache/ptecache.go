// Package ptecache models the cost of the memory references a page walk
// performs. Real walkers read PTEs through the data-cache hierarchy
// ("PTEs are cached in data caches", §X); the dominant term in walk
// latency is whether each reference hits cache or goes to DRAM.
//
// The model is a single physically-indexed set-associative cache of
// 64-byte lines standing in for the L2/L3 levels that matter to PTE
// reuse, with fixed hit and miss latencies. Eight 8-byte PTEs share a
// line, so walks over dense address regions amortize fills — which is
// why sequential workloads walk cheaply and GUPS walks at DRAM speed.
package ptecache

import (
	"fmt"
	"math/bits"
)

// Config sets the cache geometry and latencies.
type Config struct {
	// Lines is the total number of 64-byte lines; Lines/Ways, the set
	// count, must be a power of two.
	Lines int
	// Ways is the associativity.
	Ways int
	// HitCycles is charged for a reference that hits the cache.
	HitCycles uint64
	// MissCycles is charged for a reference that goes to DRAM.
	MissCycles uint64
}

// Default approximates a server-class cache hierarchy for PTE traffic:
// 32K lines of 64B (2 MB of PTE-reachable cache), 8-way, ~18-cycle hit
// (an L2/L3 blend) and ~170-cycle DRAM access.
var Default = Config{
	Lines:      32768,
	Ways:       8,
	HitCycles:  18,
	MissCycles: 170,
}

const lineShift = 6 // 64-byte lines

// tagValid marks a live line in its packed tag word. Line addresses are
// phys>>6 ≤ 2^58, so the address and the valid bit never collide and a
// probe is one word compare per way — the tag words of an 8-way set
// share a single 64-byte cache line of the simulator's own memory,
// where the old struct-per-line layout spread them over three.
const tagValid = 1 << 63

// Cache is the PTE cost model. Not safe for concurrent use.
type Cache struct {
	cfg Config
	// Line storage interleaved per way: slot 2i holds way i's packed
	// valid|lineAddr tag word, slot 2i+1 its LRU stamp, so a hit's tag
	// compare and stamp store touch the same host cache line. (A split
	// tag-array/stamp-array layout was prototyped and was no faster.)
	slots []uint64
	// mask indexes the power-of-two set count without division.
	mask   uint64
	clock  uint64
	refs   uint64
	misses uint64
}

// New builds a cache from the config. A bad geometry (see Config.Lines)
// panics: it is an invariant, not input validation, because no flag or
// parser sets a Config (the MMU uses Default unless in-repo code
// overrides it).
func New(cfg Config) *Cache {
	if cfg.Lines <= 0 || cfg.Ways <= 0 || cfg.Lines%cfg.Ways != 0 || bits.OnesCount(uint(cfg.Lines/cfg.Ways)) != 1 {
		panic(fmt.Sprintf("ptecache: bad geometry %d/%d", cfg.Lines, cfg.Ways))
	}
	return &Cache{
		cfg:   cfg,
		slots: make([]uint64, cfg.Lines*2),
		mask:  uint64(cfg.Lines/cfg.Ways - 1),
	}
}

// Access charges one PTE read at the physical address and returns its
// cost in cycles.
func (c *Cache) Access(phys uint64) uint64 {
	if c.Probe(phys) {
		return c.cfg.HitCycles
	}
	return c.cfg.MissCycles
}

// Probe charges one PTE read at the physical address and reports
// whether it hit (the MMU prices its reads from Stats' counts).
func (c *Cache) Probe(phys uint64) (hit bool) {
	c.refs++
	c.clock++
	lineAddr := phys >> lineShift
	key := tagValid | lineAddr
	ways := c.cfg.Ways
	b := int(lineAddr&c.mask) * ways * 2
	// Hit scan first, victim selection only on a confirmed miss. (A hit
	// can sit after an invalid way, so the hit scan must cover every way
	// before a miss is declared.) The full-capacity subslice lets the
	// loops run without per-way bounds checks — this is the innermost
	// loop of every simulated page walk.
	ws := c.slots[b : b+2*ways : b+2*ways]
	for j := 0; j < ways; j++ {
		if ws[2*j] == key {
			ws[2*j+1] = c.clock
			return true
		}
	}
	c.misses++
	// Victim: the first invalid way in scan order, else the LRU way.
	victim := 0
	vLRU := ws[1]
	for j := 0; j < ways; j++ {
		if ws[2*j]&tagValid == 0 {
			victim = j
			break
		}
		if l := ws[2*j+1]; l < vLRU {
			victim, vLRU = j, l
		}
	}
	ws[2*victim] = key
	ws[2*victim+1] = c.clock
	return false
}

// Stats returns lifetime references and misses.
func (c *Cache) Stats() (refs, misses uint64) { return c.refs, c.misses }

// Flush invalidates all lines.
func (c *Cache) Flush() {
	for i := 0; i < len(c.slots); i += 2 {
		c.slots[i] = 0
	}
}
