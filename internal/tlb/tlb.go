// Package tlb models the translation-caching hardware of the evaluated
// machine (Table VI of the paper):
//
//	L1 DTLB:  4KB 64-entry 4-way | 2MB 32-entry 4-way | 1GB 4-entry full
//	L2 TLB:   4KB 512-entry 4-way, shared by guest and nested entries
//	          ("EPT TLB/NTLB: shares the TLB (no separate structure)")
//	PWC:      paging-structure caches for PML4E/PDPTE/PDE entries
//
// The shared L2 is load-bearing for the reproduction: because nested
// (gPA→hPA) entries occupy the same 512 sets as guest (gVA→hPA) entries,
// virtualization shrinks the effective TLB and inflates miss counts by
// the 1.29-1.62× the paper measures (§IX.A).
//
// Every structure is a SetAssoc of at most four ways, each set one
// fixed four-way block; the 2-way PML4E cache pads its set to it.
package tlb

import (
	"fmt"
	"math/bits"

	"vdirect/internal/addr"
)

// EntryKind distinguishes the translation classes sharing the L2 TLB.
type EntryKind uint8

const (
	// KindGuest entries map gVA pages to hPA frames (or VA→PA native).
	KindGuest EntryKind = iota
	// KindNested entries map gPA pages to hPA frames, created while
	// walking the nested dimension.
	KindNested
)

func (k EntryKind) String() string {
	if k == KindGuest {
		return "guest"
	}
	return "nested"
}

// Tag-word layout. Each way's (valid, kind, asid, vpn) is packed into
// one uint64 so a set probe is four word compares against a
// precomputed key — the set's tag words share a cache line, where the
// old struct-per-way layout spread a 4-way set over three, and the
// ASID comparison costs no extra load or branch because it is part of
// the word.
//
//	bit 63      valid
//	bit 62      kind (0 guest, 1 nested)
//	bits 61:46  asid (guest entries; zero for ASID-blind nested entries)
//	bits 45:0   vpn
//
// VPNs are page numbers — va>>shift with shift ≥ 12 everywhere in the
// simulator — so 48-bit canonical virtual addresses and any guest-
// physical address below 2^58 fit the 46-bit field with room to spare;
// vpnMax enforces the contract (Insert panics, probes of out-of-range
// VPNs miss by construction because no tag can hold them).
//
// A guest entry hits only when the probe key carries the same ASID it
// was inserted under, so two address spaces' translations of the same
// vpn coexist in one set as distinct tag words. PPNs and LRU stamps
// live in parallel arrays, touched only on hit, insert or victim
// search.
const (
	tagValid  = 1 << 63
	tagKind   = 1 << 62
	asidShift = 46
	asidMask  = uint64(0xFFFF) << asidShift
	vpnMax    = 1 << asidShift // first VPN that no longer fits the tag word
)

// key builds the packed probe word for (kind, vpn) under the cache's
// current ASID. Nested entries are per-VM, not per-process, so their
// keys leave the ASID field zero and context switches do not mask them.
func (c *SetAssoc) key(kind EntryKind, vpn uint64) uint64 {
	if kind == KindNested {
		return tagValid | tagKind | vpn
	}
	return tagValid | uint64(c.curASID)<<asidShift | vpn
}

// plainKey builds the ASID-agnostic (kind, vpn) word used with asidMask
// stripped off a stored tag, for operations that match every address
// space (INVLPG-style shootdowns).
func plainKey(kind EntryKind, vpn uint64) uint64 {
	return tagValid | uint64(kind)<<62 | vpn
}

// maxWays is the associativity every set's block is laid out for; a
// set of fewer ways pads the rest (see SetAssoc).
const maxWays = 4

// setWords is the size of one set's block: [tags×4][ppns×4][lrus×4].
const setWords = 3 * maxWays

// SetAssoc is a set-associative translation cache of at most four ways
// with LRU replacement. Entries are keyed by (kind, vpn).
//
// Every set is the same 12-word block whatever the associativity, so
// each operation has one four-way code path. A set of fewer ways pads
// the block: a pad way's tag word stays zero, which no probe key
// matches (a key carries the valid bit) and no flush or invalidation
// has to clear; free keeps Insert from filling it; and its LRU stamp
// is the largest uint64, so the victim search never picks it.
type SetAssoc struct {
	name string
	// Entry storage, interleaved per set: each set owns a setWords
	// block, so one probe touches at most two host cache lines (the tag
	// words plus the hit way's ppn/lru words sit within one 96-byte
	// block) where separate tag/ppn/lru arrays spread a hit over three.
	slots []uint64
	// mask indexes the power-of-two set count without division.
	mask    uint64
	clock   uint64
	lookups uint64
	hits    uint64
	// evictions counts inserts that displaced a different valid entry
	// (refreshing an entry in place is not an eviction).
	evictions uint64
	// occupied tracks valid entries so empty-structure probes (e.g. the
	// L1 2M/1G TLBs of a 4K-only run) skip the set scan. The lookup and
	// clock counters still advance on the skipped probe, so state
	// evolution is exactly that of a scan that found nothing.
	occupied int
	// curASID tags guest entries with the running process's address-
	// space identifier (PCID). Guest entries only hit under the ASID
	// they were inserted with; nested entries are per-VM and ASID-blind.
	// The default ASID 0 reproduces untagged (flush-on-switch) TLBs.
	curASID uint16
	// free has bit j set for each real way j of a set (1<<ways - 1),
	// masking the pad ways out of Insert's fill search.
	free uint8
}

// NewSetAssoc creates a cache of entries total entries organized as
// entries/ways sets of one to four ways. entries must be a multiple of
// ways, and the set count a power of two, as in every Table VI and PWC
// geometry. A bad geometry panics: it is an invariant, not input
// validation, because no flag or parser sets a TLB or PWC geometry
// (they come from Table VI constants, NewPWC and mmu.Config defaults,
// which only in-repo code overrides).
func NewSetAssoc(name string, entries, ways int) *SetAssoc {
	if entries <= 0 || ways <= 0 || ways > maxWays || entries%ways != 0 || bits.OnesCount(uint(entries/ways)) != 1 {
		panic(fmt.Sprintf("tlb: bad geometry %d entries / %d ways", entries, ways))
	}
	sets := entries / ways
	slots := make([]uint64, sets*setWords)
	for b := 0; b < len(slots); b += setWords {
		for j := ways; j < maxWays; j++ {
			slots[b+2*maxWays+j] = ^uint64(0) // a pad way is never the LRU
		}
	}
	return &SetAssoc{
		name:  name,
		slots: slots,
		mask:  uint64(sets - 1),
		free:  uint8(1<<ways - 1),
	}
}

// base returns the first slot index of vpn's set block.
func (c *SetAssoc) base(vpn uint64) int { return int(vpn&c.mask) * setWords }

// Lookup searches for (kind, vpn); on a hit it refreshes LRU state and
// returns the target page number.
func (c *SetAssoc) Lookup(kind EntryKind, vpn uint64) (ppn uint64, hit bool) {
	c.lookups++
	c.clock++
	if c.occupied == 0 || vpn >= vpnMax {
		// Nothing cached (or no tag word can hold the vpn): miss without
		// scanning the set.
		return 0, false
	}
	k := c.key(kind, vpn)
	b := c.base(vpn)
	// The key carries the ASID, so a foreign address space's entry for
	// the same vpn is just a non-matching word. The four compares fold
	// into a hit mask with no branch: on a random stream the hit way is
	// unpredictable, so a compare-and-branch chain mispredicts where the
	// mask does not.
	t := c.slots[b : b+setWords : b+setWords]
	m := hitMask4(t[0], t[1], t[2], t[3], k)
	if m == 0 {
		return 0, false
	}
	// Masked to 0..3 so the stores below need no bounds check.
	j := bits.TrailingZeros8(m) & 3
	t[8+j] = c.clock
	c.hits++
	return t[4+j], true
}

// b2u converts a comparison result to 0 or 1; the compiler emits it as
// a SETcc, so a mask built from b2u terms has no branches. It is a
// uint8 so that mask arithmetic needs no zero-extension of the SETcc
// result.
func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// hitMask4 folds a 4-way set's tag compares against k into a mask,
// bit j set when way j holds k. The probe takes the lowest set bit:
// Insert fills an invalid way that comes before a matching one, so a
// set can hold one tag in two valid ways, and a lookup hits the first
// in way order.
//
// The bits are disjoint, so the mask is written as sums, which the
// compiler folds pairwise into three LEAs.
func hitMask4(t0, t1, t2, t3, k uint64) uint8 {
	return b2u(t0 == k) + b2u(t1 == k)*2 + (b2u(t2 == k)+b2u(t3 == k)*2)*4
}

// older returns whichever of (way a, stamp la) and (way b, stamp lb)
// was used less recently, a on a tie, with no branch.
func older(a, la, b, lb uint64) (way, stamp uint64) {
	return a ^ (a^b)&-uint64(b2u(lb < la)), min(la, lb)
}

// lruWay4 returns the way holding the smallest of four LRU stamps, with
// no branch: a tournament of the two pairs' minima. Ties go to the
// lower way, as a sequential scan's strict < would, though the stamps
// of a full set's valid ways are distinct (each is a unique clock).
func lruWay4(l0, l1, l2, l3 uint64) int {
	a, la := older(0, l0, 1, l1)
	b, lb := older(2, l2, 3, l3)
	v, _ := older(a, la, b, lb)
	return int(v)
}

// probeRun is the batched-probe chunk size: set indices and packed tag
// keys are precomputed for runs of this many probes before any tag
// word is compared, so the loads overlap instead of serializing behind
// each probe's hit/miss branch.
const probeRun = 8

// LookupRun probes a run of guest-kind VPNs in order under the current
// ASID, filling ppns[k] with the k-th probe's target on a hit, and
// stops at the first miss. It returns the number of leading hits.
// Counter and LRU evolution is exactly per-probe Lookup's — including
// the first missing probe when the return value is < len(vpns), whose
// lookup/clock charge has then already been taken, so the caller must
// not re-probe that VPN. Every geometry, padded or not, takes the same
// pipelined four-way probe.
func (c *SetAssoc) LookupRun(vpns, ppns []uint64) int {
	n := 0
	for n < len(vpns) {
		run := len(vpns) - n
		if run > probeRun {
			run = probeRun
		}
		var keys [probeRun]uint64
		var bases [probeRun]int32
		var first [probeRun]uint64
		chunk := vpns[n : n+run]
		if c.occupied == 0 {
			// Empty structure: the first probe misses without a scan,
			// charging its counters exactly as Lookup's early-miss does.
			c.lookups++
			c.clock++
			return n
		}
		for i, vpn := range chunk {
			k := tagValid | uint64(c.curASID)<<asidShift | vpn
			if vpn >= vpnMax {
				k = 0 // no stored tag can match: a guaranteed miss
			}
			b := c.base(vpn)
			keys[i] = k
			bases[i] = int32(b)
			first[i] = c.slots[b] // overlap the runs' tag-line loads
		}
		for i := 0; i < run; i++ {
			c.lookups++
			c.clock++
			k := keys[i]
			if k == 0 {
				return n // out-of-range VPN: missed by construction
			}
			b := int(bases[i])
			t := c.slots[b : b+setWords : b+setWords]
			m := hitMask4(first[i], t[1], t[2], t[3], k)
			if m == 0 {
				return n
			}
			j := bits.TrailingZeros8(m) & 3
			t[8+j] = c.clock
			c.hits++
			ppns[n] = t[4+j]
			n++
		}
	}
	return n
}

// SetASID changes the address-space identifier tagging guest entries.
func (c *SetAssoc) SetASID(a uint16) { c.curASID = a }

// FlushASID invalidates the guest entries of one address space.
func (c *SetAssoc) FlushASID(a uint16) {
	c.drop(tagValid|tagKind|asidMask, tagValid|uint64(a)<<asidShift)
}

// Insert caches (kind, vpn) → ppn, evicting the LRU way of its set if
// needed. A VPN that does not fit the tag word panics. That is an
// invariant no user input reaches: the MMU inserts page numbers of
// addresses it has translated, guest-physical addresses are below 2^58,
// and vdirect.System rejects virtual addresses at or above 2^48 before
// mapping or translating them.
func (c *SetAssoc) Insert(kind EntryKind, vpn, ppn uint64) {
	c.clock++
	if vpn >= vpnMax {
		panic(fmt.Sprintf("tlb: %s: VPN %#x exceeds the 46-bit tag-word field", c.name, vpn))
	}
	k := c.key(kind, vpn)
	b := c.base(vpn)
	// The victim is the refresh-match or the first invalid real way,
	// whichever appears first in way order, else the LRU way — an
	// invalid way before a matching one wins, exactly as the
	// struct-layout code behaved. Match and invalid cannot both hold
	// for one way (an invalid tag word never equals k, which carries
	// the valid bit), so the match-or-invalid ways form one mask whose
	// lowest bit is the scan's first hit; a full set with no match takes
	// the LRU way by a branch-free argmin. Way indices stay relative
	// (masked to the subslice length) so every store below is
	// bounds-check free.
	t := c.slots[b : b+setWords : b+setWords]
	free := uint8(t[0]>>63|t[1]>>63<<1|t[2]>>63<<2|t[3]>>63<<3) ^ 0xF
	m := hitMask4(t[0], t[1], t[2], t[3], k) | free&c.free
	var v int
	if m != 0 {
		v = bits.TrailingZeros8(m)
	} else {
		v = lruWay4(t[8], t[9], t[10], t[11])
	}
	v &= 3
	old := t[v]
	valid := old >> 63
	c.occupied += int(valid ^ 1)
	c.evictions += valid & uint64(b2u(old != k))
	t[v] = k
	t[4+v] = ppn
	t[8+v] = c.clock
}

// Flush invalidates every entry.
func (c *SetAssoc) Flush() { c.drop(tagValid, tagValid) }

// FlushKind invalidates entries of one kind (e.g. nested entries on a
// nested-page-table change).
func (c *SetAssoc) FlushKind(kind EntryKind) {
	c.drop(tagValid|tagKind, tagValid|uint64(kind)<<62)
}

// drop invalidates every entry whose tag word, under mask, equals want.
// want carries the valid bit, so invalid and pad ways never match.
func (c *SetAssoc) drop(mask, want uint64) {
	for b := 0; b < len(c.slots); b += setWords {
		for j := b; j < b+maxWays; j++ {
			if c.slots[j]&mask == want {
				c.slots[j] = 0
				c.occupied--
			}
		}
	}
}

// InvalidatePage removes a specific translation, as INVLPG would. It
// matches every ASID's entry for the page: a shootdown must not leave
// another address space's stale translation behind.
func (c *SetAssoc) InvalidatePage(kind EntryKind, vpn uint64) {
	if c.occupied == 0 || vpn >= vpnMax {
		return
	}
	k := plainKey(kind, vpn)
	b := c.base(vpn)
	for j := b; j < b+maxWays; j++ {
		if c.slots[j]&^asidMask == k {
			c.slots[j] = 0
			c.occupied--
		}
	}
}

// Stats returns lifetime lookups and hits.
func (c *SetAssoc) Stats() (lookups, hits uint64) { return c.lookups, c.hits }

// Evictions returns how many valid entries have been displaced by
// inserts (capacity/conflict replacements, not in-place refreshes).
func (c *SetAssoc) Evictions() uint64 { return c.evictions }

// Occupancy returns the number of valid entries (tests and the energy
// discussion use it).
func (c *SetAssoc) Occupancy() int { return c.occupied }

// Geometry describes one TLB level's configuration, per page size.
type Geometry struct {
	Entries4K, Ways4K int
	Entries2M, Ways2M int
	Entries1G, Ways1G int
}

// SandyBridgeL1 is the evaluated machine's L1 DTLB (Table VI).
var SandyBridgeL1 = Geometry{
	Entries4K: 64, Ways4K: 4,
	Entries2M: 32, Ways2M: 4,
	Entries1G: 4, Ways1G: 4,
}

// L1 is the first-level data TLB: separate structures per page size,
// looked up in parallel. It holds only complete gVA→hPA translations.
type L1 struct {
	by4K, by2M, by1G *SetAssoc
}

// NewL1 builds an L1 TLB with the given geometry.
func NewL1(g Geometry) *L1 {
	return &L1{
		by4K: NewSetAssoc("L1-4K", g.Entries4K, g.Ways4K),
		by2M: NewSetAssoc("L1-2M", g.Entries2M, g.Ways2M),
		by1G: NewSetAssoc("L1-1G", g.Entries1G, g.Ways1G),
	}
}

func (l *L1) structFor(s addr.PageSize) *SetAssoc {
	switch s {
	case addr.Page4K:
		return l.by4K
	case addr.Page2M:
		return l.by2M
	default:
		return l.by1G
	}
}

// Lookup probes all three size structures in parallel, as hardware does.
// The probes are unrolled — this is the hottest lookup in the simulator
// and must not allocate or dispatch per size.
func (l *L1) Lookup(va uint64) (pa uint64, size addr.PageSize, hit bool) {
	if ppn, ok := l.by4K.Lookup(KindGuest, va>>addr.PageShift4K); ok {
		return ppn<<addr.PageShift4K + va&(addr.PageSize4K-1), addr.Page4K, true
	}
	return l.LookupLarge(va)
}

// LookupLarge is the large half of Lookup: the 2M probe, then the 1G
// one, for a va whose 4K probe missed. With Lookup4KRun it decomposes
// Lookup exactly, so a block of probes can batch its 4K halves.
func (l *L1) LookupLarge(va uint64) (pa uint64, size addr.PageSize, hit bool) {
	// The 2M and 1G structures sit permanently empty for 4K-only
	// workloads; their empty-structure miss (bump lookups and clock,
	// scan nothing) is inlined here to save two calls per probe —
	// bit-identical counter behaviour to SetAssoc.Lookup's own
	// occupied==0 early-miss path.
	if c := l.by2M; c.occupied == 0 {
		c.lookups++
		c.clock++
	} else if ppn, ok := c.Lookup(KindGuest, va>>addr.PageShift2M); ok {
		return ppn<<addr.PageShift2M + va&(addr.PageSize2M-1), addr.Page2M, true
	}
	if c := l.by1G; c.occupied == 0 {
		c.lookups++
		c.clock++
	} else if ppn, ok := c.Lookup(KindGuest, va>>addr.PageShift1G); ok {
		return ppn<<addr.PageShift1G + va&(addr.PageSize1G-1), addr.Page1G, true
	}
	return 0, 0, false
}

// Only4K reports whether the 2M and 1G structures are empty, meaning
// LookupLarge would miss both without a scan (see MissLarge).
func (l *L1) Only4K() bool { return l.by2M.occupied == 0 && l.by1G.occupied == 0 }

// Lookup4KRun batch-probes the 4K structure for a run of 4K VPNs under
// the current ASID; see SetAssoc.LookupRun for the stop-at-first-miss
// contract. A 4K hit never touches the 2M/1G structures, so a run of
// 4K hits is probe-for-probe identical to per-event Lookup calls, and a
// missing probe completes as one with LookupLarge.
func (l *L1) Lookup4KRun(vpns, ppns []uint64) int { return l.by4K.LookupRun(vpns, ppns) }

// MissLarge is LookupLarge while Only4K holds: it charges the empty 2M
// and 1G structures' probes — the same bump-and-scan-nothing accounting
// LookupLarge inlines, in the same probe order — and is small enough to
// inline where LookupLarge is not. Caller must have checked Only4K.
func (l *L1) MissLarge() {
	l.by2M.lookups++
	l.by2M.clock++
	l.by1G.lookups++
	l.by1G.clock++
}

// Insert caches a completed translation at its page size.
func (l *L1) Insert(va, pa uint64, s addr.PageSize) {
	if s == addr.Page4K {
		// The dominant insert of every 4K-grain workload, lean: no
		// struct-size switch.
		l.by4K.Insert(KindGuest, va>>addr.PageShift4K, pa>>addr.PageShift4K)
		return
	}
	l.structFor(s).Insert(KindGuest, addr.PageNumber(va, s), addr.PageNumber(pa, s))
}

// Flush empties the L1 (guest context switch without PCID).
func (l *L1) Flush() {
	l.by4K.Flush()
	l.by2M.Flush()
	l.by1G.Flush()
}

// SetASID switches the L1's current address-space identifier.
func (l *L1) SetASID(a uint16) {
	l.by4K.SetASID(a)
	l.by2M.SetASID(a)
	l.by1G.SetASID(a)
}

// FlushASID drops one address space's entries at every page size, as a
// targeted PCID shootdown (INVPCID single-context) would.
func (l *L1) FlushASID(a uint16) {
	l.by4K.FlushASID(a)
	l.by2M.FlushASID(a)
	l.by1G.FlushASID(a)
}

// Invalidate drops any entry translating va, at every page size, as
// INVLPG does. The three probes are unrolled like Lookup's — building a
// []addr.PageSize literal here allocated on every unmap-heavy replay.
func (l *L1) Invalidate(va uint64) {
	l.by4K.InvalidatePage(KindGuest, va>>addr.PageShift4K)
	l.by2M.InvalidatePage(KindGuest, va>>addr.PageShift2M)
	l.by1G.InvalidatePage(KindGuest, va>>addr.PageShift1G)
}

// L2 is the unified second-level TLB. Per Table VI it holds 4K guest
// entries; the same physical structure also holds nested (gPA→hPA)
// entries when virtualized, which is what erodes guest capacity.
// Guest 2M/1G translations bypass the L2 (Sandy Bridge behaviour).
type L2 struct {
	c *SetAssoc
	// nestedInserts counts nested entries installed, for the capacity-
	// pollution analysis.
	nestedInserts uint64
}

// NewL2 builds the shared second-level TLB.
func NewL2(entries, ways int) *L2 {
	return &L2{c: NewSetAssoc("L2", entries, ways)}
}

// LookupGuest probes for a guest 4K translation.
func (l *L2) LookupGuest(va uint64) (pa uint64, hit bool) {
	ppn, ok := l.c.Lookup(KindGuest, va>>addr.PageShift4K)
	if !ok {
		return 0, false
	}
	return ppn<<addr.PageShift4K + va&(addr.PageSize4K-1), true
}

// InsertGuest caches a guest 4K translation.
func (l *L2) InsertGuest(va, pa uint64) {
	l.c.Insert(KindGuest, va>>addr.PageShift4K, pa>>addr.PageShift4K)
}

// LookupNested probes for a nested gPA→hPA translation at 4K grain.
func (l *L2) LookupNested(gpa uint64) (hpa uint64, hit bool) {
	ppn, ok := l.c.Lookup(KindNested, gpa>>addr.PageShift4K)
	if !ok {
		return 0, false
	}
	return ppn<<addr.PageShift4K + (gpa & (addr.PageSize4K - 1)), true
}

// InsertNested caches a nested translation in the shared structure.
func (l *L2) InsertNested(gpa, hpa uint64) {
	l.nestedInserts++
	l.c.Insert(KindNested, gpa>>addr.PageShift4K, hpa>>addr.PageShift4K)
}

// Flush empties the L2.
func (l *L2) Flush() { l.c.Flush() }

// SetASID switches the L2's current address-space identifier.
func (l *L2) SetASID(a uint16) { l.c.SetASID(a) }

// FlushASID drops one address space's guest entries; nested entries are
// per-VM and survive, exactly as on a PCID shootdown.
func (l *L2) FlushASID(a uint16) { l.c.FlushASID(a) }

// InvalidateGuest drops the guest 4K entry for va, if present.
func (l *L2) InvalidateGuest(va uint64) {
	l.c.InvalidatePage(KindGuest, va>>addr.PageShift4K)
}

// FlushNested drops only nested entries (nested PT modification).
func (l *L2) FlushNested() { l.c.FlushKind(KindNested) }

// Stats returns lookups, hits and nested insertions.
func (l *L2) Stats() (lookups, hits, nestedInserts uint64) {
	lu, h := l.c.Stats()
	return lu, h, l.nestedInserts
}

// Occupancy returns valid entries in the shared structure.
func (l *L2) Occupancy() int { return l.c.Occupancy() }

// Evictions returns how many valid entries the shared structure has
// displaced — the §IX.A capacity-erosion pressure, directly observable.
func (l *L2) Evictions() uint64 { return l.c.Evictions() }

// PWC is the set of paging-structure caches (MMU caches) that let the
// walker skip upper levels: separate small caches for PML4E, PDPTE and
// PDE entries (one 2-way set, one 4-way set, and eight 4-way sets),
// tagged by the virtual-address prefix.
// Sizes follow Intel-like paging-structure caches.
type PWC struct {
	pml4e *SetAssoc // tag: va bits 47:39
	pdpte *SetAssoc // tag: va bits 47:30
	pde   *SetAssoc // tag: va bits 47:21
}

// NewPWC builds paging-structure caches of conventional sizes.
func NewPWC() *PWC {
	return &PWC{
		pml4e: NewSetAssoc("PWC-PML4E", 2, 2),
		pdpte: NewSetAssoc("PWC-PDPTE", 4, 4),
		pde:   NewSetAssoc("PWC-PDE", 32, 4),
	}
}

// SkipLevel returns how many upper levels of a walk for va can be
// skipped (0 = none, 3 = start directly at the PT level) given cached
// paging structures. Deeper caches are preferred, as in hardware.
func (p *PWC) SkipLevel(va uint64) int {
	if _, ok := p.pde.Lookup(KindGuest, va>>addr.PageShift2M); ok {
		return 3
	}
	if _, ok := p.pdpte.Lookup(KindGuest, va>>addr.PageShift1G); ok {
		return 2
	}
	if _, ok := p.pml4e.Lookup(KindGuest, va>>(addr.PageShift1G+9)); ok {
		return 1
	}
	return 0
}

// FillFrom records the paging structures traversed by a completed walk
// that started at level startLvl and ended at endLvl (leaf level).
func (p *PWC) FillFrom(va uint64, startLvl, endLvl int) {
	for lvl := startLvl; lvl < endLvl; lvl++ {
		switch lvl {
		case addr.LvlPML4:
			p.pml4e.Insert(KindGuest, va>>(addr.PageShift1G+9), 0)
		case addr.LvlPDPT:
			p.pdpte.Insert(KindGuest, va>>addr.PageShift1G, 0)
		case addr.LvlPD:
			p.pde.Insert(KindGuest, va>>addr.PageShift2M, 0)
		}
	}
}

// SetASID switches the paging-structure caches' address space: cached
// structure pointers are per-process state just like TLB entries.
func (p *PWC) SetASID(a uint16) {
	p.pml4e.SetASID(a)
	p.pdpte.SetASID(a)
	p.pde.SetASID(a)
}

// FlushASID drops one address space's cached structure pointers.
func (p *PWC) FlushASID(a uint16) {
	p.pml4e.FlushASID(a)
	p.pdpte.FlushASID(a)
	p.pde.FlushASID(a)
}

// Flush empties all three caches.
func (p *PWC) Flush() {
	p.pml4e.Flush()
	p.pdpte.Flush()
	p.pde.Flush()
}
