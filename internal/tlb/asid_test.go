package tlb

import (
	"testing"

	"vdirect/internal/addr"
)

// TestSetAssocASIDTagging pins the PCID model: guest entries hit only
// under the ASID they were inserted with, nested entries are ASID-blind,
// and FlushASID removes exactly one address space's guest entries.
func TestSetAssocASIDTagging(t *testing.T) {
	// 4 ways so the two ASID-tagged guest copies and the nested entry
	// can coexist in VPN 1's set without capacity evictions.
	c := NewSetAssoc("t", 8, 4)
	c.Insert(KindGuest, 1, 10)
	c.Insert(KindNested, 1, 20)

	c.SetASID(7)
	if _, hit := c.Lookup(KindGuest, 1); hit {
		t.Error("guest entry from ASID 0 hit under ASID 7")
	}
	if ppn, hit := c.Lookup(KindNested, 1); !hit || ppn != 20 {
		t.Errorf("nested entry must be ASID-blind: %d, %v", ppn, hit)
	}
	c.Insert(KindGuest, 1, 17)
	if ppn, hit := c.Lookup(KindGuest, 1); !hit || ppn != 17 {
		t.Errorf("ASID 7 entry: %d, %v", ppn, hit)
	}

	// Returning to ASID 0 revives its entry — both tagged copies coexist.
	c.SetASID(0)
	if ppn, hit := c.Lookup(KindGuest, 1); !hit || ppn != 10 {
		t.Errorf("ASID 0 entry after switch back: %d, %v", ppn, hit)
	}

	// FlushASID(7) is surgical: ASID 0 guest and nested entries survive.
	c.FlushASID(7)
	c.SetASID(7)
	if _, hit := c.Lookup(KindGuest, 1); hit {
		t.Error("FlushASID(7) left ASID 7 entry")
	}
	c.SetASID(0)
	if _, hit := c.Lookup(KindGuest, 1); !hit {
		t.Error("FlushASID(7) dropped ASID 0 entry")
	}
	if _, hit := c.Lookup(KindNested, 1); !hit {
		t.Error("FlushASID(7) dropped nested entry")
	}
}

// TestL1ASIDAndInvalidate covers the L1 wrappers: SetASID fans out to
// all three size structures, and Invalidate drops the entry for a VA at
// whichever page size cached it.
func TestL1ASIDAndInvalidate(t *testing.T) {
	l1 := NewL1(SandyBridgeL1)
	l1.Insert(0x1000, 0x201000, addr.Page4K)
	l1.Insert(3<<addr.PageShift2M, 5<<addr.PageShift2M, addr.Page2M)
	l1.Insert(2<<addr.PageShift1G, 3<<addr.PageShift1G, addr.Page1G)

	l1.SetASID(9)
	for _, va := range []uint64{0x1000, 3 << addr.PageShift2M, 2 << addr.PageShift1G} {
		if _, _, hit := l1.Lookup(va); hit {
			t.Errorf("va %#x hit under foreign ASID", va)
		}
	}
	l1.SetASID(0)
	for _, va := range []uint64{0x1000, 3 << addr.PageShift2M, 2 << addr.PageShift1G} {
		if _, _, hit := l1.Lookup(va); !hit {
			t.Errorf("va %#x lost after ASID round trip", va)
		}
	}

	// INVLPG hits every size structure; the 2M entry must go even though
	// the VA passed in is not 2M-aligned.
	l1.Invalidate(3<<addr.PageShift2M + 0x2345)
	if _, _, hit := l1.Lookup(3 << addr.PageShift2M); hit {
		t.Error("2M entry survived Invalidate")
	}
	if _, _, hit := l1.Lookup(0x1000); !hit {
		t.Error("unrelated 4K entry dropped by Invalidate")
	}
	if _, _, hit := l1.Lookup(2 << addr.PageShift1G); !hit {
		t.Error("unrelated 1G entry dropped by Invalidate")
	}

	// FlushASID fans out to every size structure too.
	l1.FlushASID(0)
	for _, va := range []uint64{0x1000, 2 << addr.PageShift1G} {
		if _, _, hit := l1.Lookup(va); hit {
			t.Errorf("va %#x survived FlushASID", va)
		}
	}
}

// TestL2FlushASIDInvalidate covers the L2 wrappers the MMU's context-
// switch and INVLPG paths call.
func TestL2FlushASIDInvalidate(t *testing.T) {
	l2 := NewL2(512, 4)
	l2.InsertGuest(0x4000, 0x804000)
	l2.InsertGuest(0x5000, 0x805000)
	l2.InsertNested(0x9000, 0x709000)

	l2.InvalidateGuest(0x4000)
	if _, hit := l2.LookupGuest(0x4000); hit {
		t.Error("guest entry survived InvalidateGuest")
	}
	if _, hit := l2.LookupGuest(0x5000); !hit {
		t.Error("unrelated guest entry dropped")
	}

	l2.SetASID(3)
	if _, hit := l2.LookupGuest(0x5000); hit {
		t.Error("guest entry hit under foreign ASID")
	}
	if hpa, hit := l2.LookupNested(0x9000); !hit || hpa != 0x709000 {
		t.Errorf("nested entry must be ASID-blind: %#x, %v", hpa, hit)
	}
	l2.SetASID(0)

	// FlushASID is surgical: the current address space's guest entries
	// go, per-VM nested entries survive.
	l2.FlushASID(0)
	if _, hit := l2.LookupGuest(0x5000); hit {
		t.Error("guest entry survived FlushASID")
	}
	if _, hit := l2.LookupNested(0x9000); !hit {
		t.Error("nested entry dropped by FlushASID")
	}

	l2.Flush()
	if l2.Occupancy() != 0 {
		t.Errorf("occupancy after Flush = %d", l2.Occupancy())
	}
}

// TestPWCSetASID pins that paging-structure caches are per-process
// state: cached structure pointers must not leak across a PCID switch.
func TestPWCSetASID(t *testing.T) {
	p := NewPWC()
	va := uint64(0x40000000)
	p.FillFrom(va, addr.LvlPML4, addr.LvlPT)
	if p.SkipLevel(va) != 3 {
		t.Fatalf("skip = %d after full fill", p.SkipLevel(va))
	}
	p.SetASID(5)
	if got := p.SkipLevel(va); got != 0 {
		t.Errorf("skip = %d under foreign ASID, want 0", got)
	}
	p.SetASID(0)
	if got := p.SkipLevel(va); got != 3 {
		t.Errorf("skip = %d after ASID round trip, want 3", got)
	}
	p.FlushASID(0)
	if got := p.SkipLevel(va); got != 0 {
		t.Errorf("skip = %d after FlushASID, want 0", got)
	}
}
