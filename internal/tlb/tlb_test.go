package tlb

import (
	"testing"
	"testing/quick"

	"vdirect/internal/addr"
	"vdirect/internal/trace"
)

func TestSetAssocBasic(t *testing.T) {
	c := NewSetAssoc("t", 8, 2)
	if _, hit := c.Lookup(KindGuest, 5); hit {
		t.Error("empty cache hit")
	}
	c.Insert(KindGuest, 5, 50)
	if ppn, hit := c.Lookup(KindGuest, 5); !hit || ppn != 50 {
		t.Errorf("lookup = %d, %v", ppn, hit)
	}
	// Same VPN, different kind must miss.
	if _, hit := c.Lookup(KindNested, 5); hit {
		t.Error("kind confusion")
	}
	lu, h := c.Stats()
	if lu != 3 || h != 1 {
		t.Errorf("stats = %d lookups, %d hits", lu, h)
	}
}

func TestSetAssocReplaceInPlace(t *testing.T) {
	c := NewSetAssoc("t", 4, 2)
	c.Insert(KindGuest, 2, 10)
	c.Insert(KindGuest, 2, 20)
	if ppn, hit := c.Lookup(KindGuest, 2); !hit || ppn != 20 {
		t.Errorf("replace in place failed: %d, %v", ppn, hit)
	}
	if c.Occupancy() != 1 {
		t.Errorf("occupancy = %d, want 1 (no duplicate)", c.Occupancy())
	}
}

func TestSetAssocLRUEviction(t *testing.T) {
	// 2 sets x 2 ways; VPNs 0,2,4 share set 0.
	c := NewSetAssoc("t", 4, 2)
	c.Insert(KindGuest, 0, 100)
	c.Insert(KindGuest, 2, 102)
	c.Lookup(KindGuest, 0) // make VPN 0 MRU
	c.Insert(KindGuest, 4, 104)
	if _, hit := c.Lookup(KindGuest, 2); hit {
		t.Error("LRU entry survived eviction")
	}
	if _, hit := c.Lookup(KindGuest, 0); !hit {
		t.Error("MRU entry evicted")
	}
	if _, hit := c.Lookup(KindGuest, 4); !hit {
		t.Error("inserted entry missing")
	}
}

func TestSetAssocEvictionCount(t *testing.T) {
	// 2 sets x 2 ways; VPNs 0,2,4 share set 0.
	c := NewSetAssoc("t", 4, 2)
	c.Insert(KindGuest, 0, 100)
	c.Insert(KindGuest, 2, 102)
	if c.Evictions() != 0 {
		t.Errorf("evictions after fills = %d, want 0", c.Evictions())
	}
	// Refreshing an existing key in place is not an eviction.
	c.Insert(KindGuest, 0, 200)
	if c.Evictions() != 0 {
		t.Errorf("in-place refresh counted as eviction: %d", c.Evictions())
	}
	// Displacing a valid entry of a different key is.
	c.Insert(KindGuest, 4, 104)
	if c.Evictions() != 1 {
		t.Errorf("evictions = %d, want 1", c.Evictions())
	}
	// Nested and guest entries sharing a set: cross-kind displacement
	// still counts — that is the capacity-erosion signal.
	c.Insert(KindNested, 0, 300)
	if c.Evictions() != 2 {
		t.Errorf("evictions = %d, want 2", c.Evictions())
	}
}

func TestL2EvictionsExposed(t *testing.T) {
	l2 := NewL2(4, 2)
	for p := uint64(0); p < 6; p++ {
		l2.InsertGuest((2*p)<<addr.PageShift4K, p<<addr.PageShift4K) // even VPNs share set 0
	}
	if l2.Evictions() == 0 {
		t.Error("overfilled L2 reported no evictions")
	}
}

func TestSetAssocFlushAndInvalidate(t *testing.T) {
	c := NewSetAssoc("t", 8, 2)
	c.Insert(KindGuest, 1, 1)
	c.Insert(KindNested, 2, 2)
	c.FlushKind(KindNested)
	if _, hit := c.Lookup(KindNested, 2); hit {
		t.Error("FlushKind missed nested entry")
	}
	if _, hit := c.Lookup(KindGuest, 1); !hit {
		t.Error("FlushKind hit guest entry")
	}
	c.InvalidatePage(KindGuest, 1)
	if _, hit := c.Lookup(KindGuest, 1); hit {
		t.Error("InvalidatePage missed")
	}
	c.Insert(KindGuest, 3, 3)
	c.Flush()
	if c.Occupancy() != 0 {
		t.Error("Flush left entries")
	}
}

// TestSetAssocBadGeometryPanics: an entry count that is not a multiple
// of the ways, a set count that is not a power of two (3 and 7 sets),
// and more than four ways are rejected when the structure is built.
func TestSetAssocBadGeometryPanics(t *testing.T) {
	for _, g := range [][2]int{{5, 2}, {0, 4}, {4, 0}, {6, 2}, {21, 3}, {8, 8}, {10, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSetAssoc(%d entries, %d ways) did not panic", g[0], g[1])
				}
			}()
			NewSetAssoc("bad", g[0], g[1])
		}()
	}
}

func TestL1MultiSizeParallelLookup(t *testing.T) {
	l1 := NewL1(SandyBridgeL1)
	l1.Insert(0x1000, 0xa000, addr.Page4K)
	l1.Insert(0x200000, 0x600000, addr.Page2M)
	l1.Insert(0x40000000, 0x80000000, addr.Page1G)

	pa, s, hit := l1.Lookup(0x1abc)
	if !hit || pa != 0xaabc || s != addr.Page4K {
		t.Errorf("4K lookup = %#x %v %v", pa, s, hit)
	}
	pa, s, hit = l1.Lookup(0x2abcde)
	if !hit || pa != 0x6abcde || s != addr.Page2M {
		t.Errorf("2M lookup = %#x %v %v", pa, s, hit)
	}
	pa, s, hit = l1.Lookup(0x40000000 + 0x123456)
	if !hit || pa != 0x80123456 || s != addr.Page1G {
		t.Errorf("1G lookup = %#x %v %v", pa, s, hit)
	}
	if _, _, hit := l1.Lookup(0x99999000); hit {
		t.Error("phantom hit")
	}
	l1.Flush()
	if _, _, hit := l1.Lookup(0x1abc); hit {
		t.Error("flush did not clear L1")
	}
}

func TestL1Capacity4K(t *testing.T) {
	l1 := NewL1(SandyBridgeL1)
	// Insert 65 distinct 4K pages that all map to different sets; with
	// 64 entries some must be evicted.
	for i := uint64(0); i < 65; i++ {
		l1.Insert(i<<12, i<<12, addr.Page4K)
	}
	hits := 0
	for i := uint64(0); i < 65; i++ {
		if _, _, hit := l1.Lookup(i << 12); hit {
			hits++
		}
	}
	if hits > 64 {
		t.Errorf("capacity exceeded: %d hits", hits)
	}
	if hits < 60 {
		t.Errorf("too few survivors: %d", hits)
	}
}

func TestL2SharedNestedCapacityErosion(t *testing.T) {
	// The key §IX.A mechanism: nested entries consume L2 capacity.
	l2 := NewL2(512, 4)
	// Fill with 512 guest entries (full occupancy).
	for i := uint64(0); i < 512; i++ {
		l2.InsertGuest(i<<12, i<<12)
	}
	if l2.Occupancy() != 512 {
		t.Fatalf("occupancy = %d", l2.Occupancy())
	}
	guestHitsBefore := 0
	for i := uint64(0); i < 512; i++ {
		if _, hit := l2.LookupGuest(i << 12); hit {
			guestHitsBefore++
		}
	}
	// Insert 256 nested entries; they must evict guest entries.
	for i := uint64(0); i < 256; i++ {
		l2.InsertNested(0x80000000+i<<12, i<<12)
	}
	guestHitsAfter := 0
	for i := uint64(0); i < 512; i++ {
		if _, hit := l2.LookupGuest(i << 12); hit {
			guestHitsAfter++
		}
	}
	if guestHitsAfter >= guestHitsBefore {
		t.Errorf("nested entries did not erode guest capacity: %d -> %d",
			guestHitsBefore, guestHitsAfter)
	}
	_, _, nested := l2.Stats()
	if nested != 256 {
		t.Errorf("nestedInserts = %d", nested)
	}
}

func TestL2NestedLookupOffsetPreserved(t *testing.T) {
	l2 := NewL2(512, 4)
	l2.InsertNested(0x5000, 0x9000)
	hpa, hit := l2.LookupNested(0x5123)
	if !hit || hpa != 0x9123 {
		t.Errorf("nested lookup = %#x %v", hpa, hit)
	}
	l2.FlushNested()
	if _, hit := l2.LookupNested(0x5123); hit {
		t.Error("FlushNested missed")
	}
}

func TestPWCSkipLevels(t *testing.T) {
	p := NewPWC()
	va := uint64(0x7f1234567000)
	if skip := p.SkipLevel(va); skip != 0 {
		t.Errorf("cold PWC skip = %d", skip)
	}
	// A full 4-level walk fills all three caches.
	p.FillFrom(va, 0, addr.LvlPT)
	if skip := p.SkipLevel(va); skip != 3 {
		t.Errorf("warm PWC skip = %d, want 3", skip)
	}
	// A va sharing only the 1G region gets skip=2.
	sibling2M := va + addr.PageSize2M
	if skip := p.SkipLevel(sibling2M); skip != 2 {
		t.Errorf("2M sibling skip = %d, want 2", skip)
	}
	// A va sharing only the PML4 entry gets skip=1.
	sibling1G := va + addr.PageSize1G
	if skip := p.SkipLevel(sibling1G); skip != 1 {
		t.Errorf("1G sibling skip = %d, want 1", skip)
	}
	p.Flush()
	if skip := p.SkipLevel(va); skip != 0 {
		t.Errorf("flushed PWC skip = %d", skip)
	}
}

func TestPWCPartialFill(t *testing.T) {
	p := NewPWC()
	va := uint64(0x40000000)
	// A 2M-leaf walk (ends at PD) fills PML4E and PDPTE only.
	p.FillFrom(va, 0, addr.LvlPD)
	if skip := p.SkipLevel(va); skip != 2 {
		t.Errorf("skip = %d, want 2", skip)
	}
}

func TestLookupInsertRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := trace.NewRand(seed)
		c := NewSetAssoc("prop", 64, 4)
		// Whatever we just inserted must be immediately findable.
		for i := 0; i < 200; i++ {
			vpn := r.Uint64n(1 << 20)
			c.Insert(KindGuest, vpn, vpn*2)
			if ppn, hit := c.Lookup(KindGuest, vpn); !hit || ppn != vpn*2 {
				return false
			}
		}
		return c.Occupancy() <= 64
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestEntryKindString(t *testing.T) {
	if KindGuest.String() != "guest" || KindNested.String() != "nested" {
		t.Error("kind strings wrong")
	}
}
