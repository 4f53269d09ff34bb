package mmu

import (
	"testing"

	"vdirect/internal/addr"
	"vdirect/internal/ptecache"
	"vdirect/internal/segment"
	"vdirect/internal/tlb"
)

// costIdentity is the walk-cycle identity written out independently of
// the MMU: Δ per segment check, the L2 probe cost per L2 probe, the
// nested-probe cost per nested-TLB hit, and per PTE reference its
// PTE-cache cost, where x of the refs missed. c must carry its defaults.
func costIdentity(c Config, st Stats, x uint64) uint64 {
	return c.SegmentCheckCycles*st.SegmentChecks +
		c.L2HitCycles*(st.L2Hits+st.L2Misses) +
		c.NestedProbeCycles*st.NestedTLBHits +
		c.PTECache.HitCycles*(st.WalkMemRefs-x) +
		c.PTECache.MissCycles*x
}

// termsConfig gives every cost term of the identity its own nonzero
// weight, so swapping any two of them changes the total, and shrinks
// the L1 and PTE cache so a short run has L2 hits and PTE-cache hits
// and misses.
func termsConfig() Config {
	return Config{
		L1: tlb.Geometry{
			Entries4K: 4, Ways4K: 4,
			Entries2M: 4, Ways2M: 4,
			Entries1G: 4, Ways1G: 4,
		},
		SegmentCheckCycles: 2,
		L2HitCycles:        3,
		NestedProbeCycles:  7,
		PTECache:           ptecache.Config{Lines: 64, Ways: 4, HitCycles: 18, MissCycles: 170},
	}
}

// translateAll translates each page of [gva, gva+n pages) and returns
// the sum of the Results' cycles.
func translateAll(t *testing.T, e *env, gva, n uint64) uint64 {
	t.Helper()
	var sum uint64
	for p := uint64(0); p < n; p++ {
		res, fault := e.m.Translate(gva + p<<addr.PageShift4K + 0x18)
		if fault != nil {
			t.Fatal(fault)
		}
		sum += res.Cycles
	}
	return sum
}

// TestWalkCyclesIdentityTerms runs 2D walks with and without a VMM
// segment, so every term of the identity is nonzero, and checks that
// every counted reference probed the PTE cache once, and that
// WalkCycles is the identity over the counts and the PTE-cache misses,
// and the sum of the accesses' Result cycles.
func TestWalkCyclesIdentityTerms(t *testing.T) {
	e := newEnv(t, 16, termsConfig())
	e.mapGuest(t, 0x400000, 0x800000, 16)
	// Twice over 16 pages: the 4-entry L1 misses the second pass, which
	// hits the L2. The first pass's walks find the guest table pages'
	// gPAs in the nested TLB.
	sum := translateAll(t, e, 0x400000, 16)
	sum += translateAll(t, e, 0x400000, 16)
	// A VMM segment over the low 4 MB of gPA covers the guest table
	// pages but not the data pages: each walk adds segment checks.
	e.m.SetVMMSegment(segment.NewRegisters(0, e.hostBase, 4<<20))
	e.m.FlushTLBs()
	sum += translateAll(t, e, 0x400000, 16)

	st, x := e.m.Stats(), e.m.PTECacheMisses()
	if refs, _ := e.m.ptc.Stats(); refs != st.WalkMemRefs {
		t.Fatalf("%d PTE-cache probes, %d WalkMemRefs", refs, st.WalkMemRefs)
	}
	if st.SegmentChecks == 0 || st.L2Hits == 0 || st.L2Misses == 0 || st.NestedTLBHits == 0 ||
		x == 0 || x == st.WalkMemRefs {
		t.Fatalf("a cost term is zero: %d checks, %d/%d L2 hits/misses, %d nested TLB hits, %d of %d refs missed",
			st.SegmentChecks, st.L2Hits, st.L2Misses, st.NestedTLBHits, x, st.WalkMemRefs)
	}
	if want := costIdentity(e.m.cfg, st, x); st.WalkCycles != want {
		t.Errorf("WalkCycles %d, identity %d", st.WalkCycles, want)
	}
	if st.WalkCycles != sum {
		t.Errorf("WalkCycles %d, Result cycles sum %d", st.WalkCycles, sum)
	}
}

// TestWalkCyclesAfterResetStats warms the PTE cache, resets the
// counters and measures: the measured phase's WalkCycles counts only
// its own PTE-cache misses, so it equals its accesses' Result cycles.
func TestWalkCyclesAfterResetStats(t *testing.T) {
	e := newEnv(t, 16, termsConfig())
	e.mapGuest(t, 0x400000, 0x800000, 64)
	translateAll(t, e, 0x400000, 32)
	e.m.ResetStats()
	refs0, _ := e.m.ptc.Stats()
	if x := e.m.PTECacheMisses(); x != 0 {
		t.Fatalf("%d PTE-cache misses right after ResetStats", x)
	}
	sum := translateAll(t, e, 0x420000, 32)
	st, x := e.m.Stats(), e.m.PTECacheMisses()
	if x == 0 {
		t.Fatal("the measured phase has no PTE-cache misses")
	}
	if refs, _ := e.m.ptc.Stats(); refs-refs0 != st.WalkMemRefs {
		t.Fatalf("%d PTE-cache probes since ResetStats, %d WalkMemRefs", refs-refs0, st.WalkMemRefs)
	}
	if want := costIdentity(e.m.cfg, st, x); st.WalkCycles != want {
		t.Errorf("WalkCycles %d, identity %d", st.WalkCycles, want)
	}
	if st.WalkCycles != sum {
		t.Errorf("WalkCycles %d, Result cycles sum %d", st.WalkCycles, sum)
	}
}
