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
// probe is one word compare per way.
const tagValid = 1 << 63

// maxWays is the largest associativity a set's recency word can order:
// it holds one 4-bit way index per nibble, in 32 bits.
const maxWays = 8

// nibbles has 1 in every nibble of a recency word.
const nibbles = 0x11111111

// Cache is the PTE cost model. Not safe for concurrent use.
type Cache struct {
	cfg Config
	// tags holds each set's Ways packed valid|lineAddr words
	// contiguously, so a probe of an 8-way set reads one 64-byte line of
	// the simulator's own memory.
	tags []uint64
	// order holds one recency word per set: nibble i is the way at
	// recency position i, from the most (i = 0) to the least recently
	// used (i = Ways-1). Nibbles past Ways hold 0xF. Each way appears in
	// exactly one nibble, whether or not it holds a line.
	order []uint32
	// mask indexes the power-of-two set count without division.
	mask   uint64
	refs   uint64
	misses uint64
}

// New builds a cache from the config. A bad geometry (see Config.Lines)
// or more than eight ways panics: it is an invariant, not input
// validation, because no flag or parser sets a Config (the MMU uses
// Default unless in-repo code overrides it).
func New(cfg Config) *Cache {
	if cfg.Lines <= 0 || cfg.Ways <= 0 || cfg.Ways > maxWays || cfg.Lines%cfg.Ways != 0 || bits.OnesCount(uint(cfg.Lines/cfg.Ways)) != 1 {
		panic(fmt.Sprintf("ptecache: bad geometry %d/%d", cfg.Lines, cfg.Ways))
	}
	// Every set starts with the ways in index order; any permutation
	// would do, since an empty set fills its invalid ways first.
	seed := ^uint32(0) << (4 * cfg.Ways)
	for w := 0; w < cfg.Ways; w++ {
		seed |= uint32(w) << (4 * w)
	}
	order := make([]uint32, cfg.Lines/cfg.Ways)
	for i := range order {
		order[i] = seed
	}
	return &Cache{
		cfg:   cfg,
		tags:  make([]uint64, cfg.Lines),
		order: order,
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
	lineAddr := phys >> lineShift
	key := tagValid | lineAddr
	ways := c.cfg.Ways
	set := lineAddr & c.mask
	ord := &c.order[set]
	b := int(set) * ways
	// The full-capacity subslice lets the loop run without per-way
	// bounds checks — this is the innermost loop of every simulated
	// page walk.
	ws := c.tags[b : b+ways : b+ways]
	// A line is filled only after a miss over the whole set, so no set
	// holds a line twice and at most one way matches.
	for j, t := range ws {
		if t == key {
			*ord = touch(*ord, uint32(j))
			return true
		}
	}
	c.misses++
	// Victim: the way in the last nibble, the least recently used one.
	// While the set has an invalid way, that way is one (see Flush).
	victim := *ord >> (4 * (ways - 1)) & 0xF
	ws[victim] = key
	*ord = touch(*ord, victim)
	return false
}

// touch returns the recency word with way moved to the front (nibble 0)
// and the ways that were more recent than it moved back one nibble;
// the ways behind it keep their places. way must be in the word.
//
// It takes no branch and no variable shift. XOR with way in every
// nibble zeroes way's nibble alone, and the SWAR test
// (x - 0x1…1) &^ x & 0x8…8 sets the top bit of every zero nibble (a
// borrow may also set it in a higher one, never in a lower one), so
// the lowest set bit, shifted down to the bottom of its nibble and less
// one, masks the nibbles ahead of way.
func touch(order, way uint32) uint32 {
	x := order ^ way*nibbles
	z := (x - nibbles) &^ x & (8 * nibbles)
	ahead := (z&-z)>>3 - 1
	return order&^(ahead<<4|0xF) | (order&ahead)<<4 | way
}

// Stats returns lifetime references and misses.
func (c *Cache) Stats() (refs, misses uint64) { return c.refs, c.misses }

// Flush invalidates all lines and leaves the recency words as they are.
// Only a fill makes a way valid, and a fill touches it; a hit touches a
// valid way. So since the last Flush (or New) the touched ways are
// exactly the valid ones, and move-to-front keeps them ahead of the
// untouched ones: the last nibble holds an invalid way while the set
// has one, and a set refills every invalid way before it evicts. By
// the time it is full again every way has been touched since the
// flush, and its word orders the ways exactly as per-line use stamps
// would.
func (c *Cache) Flush() { clear(c.tags) }
