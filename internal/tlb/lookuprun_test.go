package tlb

import (
	"fmt"
	"testing"

	"vdirect/internal/addr"
)

// The batched-probe contract: LookupRun must be probe-for-probe
// identical to sequential Lookup calls — same hit results, same
// counter and clock evolution, same LRU movement (observed through
// subsequent eviction behaviour) — including the charged miss that
// terminates a short run. The tests drive a batched cache and a
// per-probe mirror through identical op sequences and compare
// everything observable after every step.

// mirrorLookupRun is the per-probe reference: sequential Lookups with
// LookupRun's stop-at-first-miss contract.
func mirrorLookupRun(c *SetAssoc, vpns, ppns []uint64) int {
	for i, vpn := range vpns {
		ppn, hit := c.Lookup(KindGuest, vpn)
		if !hit {
			return i
		}
		ppns[i] = ppn
	}
	return len(vpns)
}

// checkSame compares every exported observable of the two caches.
func checkSame(t *testing.T, step string, batched, mirror *SetAssoc) {
	t.Helper()
	bl, bh := batched.Stats()
	ml, mh := mirror.Stats()
	if bl != ml || bh != mh {
		t.Fatalf("%s: stats diverge: batched %d/%d, mirror %d/%d", step, bl, bh, ml, mh)
	}
	if batched.clock != mirror.clock {
		t.Fatalf("%s: clock diverges: %d vs %d", step, batched.clock, mirror.clock)
	}
	if batched.Occupancy() != mirror.Occupancy() {
		t.Fatalf("%s: occupancy diverges: %d vs %d", step, batched.Occupancy(), mirror.Occupancy())
	}
	for i := range batched.slots {
		if batched.slots[i] != mirror.slots[i] {
			t.Fatalf("%s: slot %d diverges: %#x vs %#x", step, i, batched.slots[i], mirror.slots[i])
		}
	}
}

// runBoth drives the same probe run through both caches and checks the
// return values, filled ppns, and full post-run state match.
func runBoth(t *testing.T, step string, batched, mirror *SetAssoc, vpns []uint64) int {
	t.Helper()
	bp := make([]uint64, len(vpns))
	mp := make([]uint64, len(vpns))
	bn := batched.LookupRun(vpns, bp)
	mn := mirrorLookupRun(mirror, vpns, mp)
	if bn != mn {
		t.Fatalf("%s: hit counts diverge: batched %d, mirror %d", step, bn, mn)
	}
	for i := 0; i < bn; i++ {
		if bp[i] != mp[i] {
			t.Fatalf("%s: ppn %d diverges: %#x vs %#x", step, i, bp[i], mp[i])
		}
	}
	checkSame(t, step, batched, mirror)
	return bn
}

// TestLookupRunMatchesSequentialLookup is the lockstep differential
// over the shipped 4-way geometry: multi-chunk full-hit runs (the
// pipelined path spans more than one probeRun chunk), runs cut by a
// miss at every position within a chunk, ASID-tagged entries, and
// LRU-evolution checks via post-run conflict inserts.
func TestLookupRunMatchesSequentialLookup(t *testing.T) {
	batched := NewSetAssoc("b", 64, 4)
	mirror := NewSetAssoc("m", 64, 4)

	// Empty-structure probe: one charged early miss, no scan.
	if n := runBoth(t, "empty", batched, mirror, []uint64{5, 6, 7}); n != 0 {
		t.Fatalf("empty structure returned %d hits", n)
	}

	// Fill 20 consecutive VPNs (one per set, then wrapping) and probe
	// them all in one 20-probe run: exercises multiple 8-wide chunks
	// with a partial tail chunk.
	for vpn := uint64(0); vpn < 20; vpn++ {
		batched.Insert(KindGuest, vpn, 100+vpn)
		mirror.Insert(KindGuest, vpn, 100+vpn)
	}
	vpns := make([]uint64, 20)
	for i := range vpns {
		vpns[i] = uint64(i)
	}
	if n := runBoth(t, "full-hit", batched, mirror, vpns); n != 20 {
		t.Fatalf("full-hit run returned %d of 20", n)
	}

	// A miss at every chunk position: probe [0..k-1, unmapped, k..],
	// so the charged terminating miss lands at each lane of the
	// 8-wide chunk at least once.
	for k := 0; k < 10; k++ {
		seq := make([]uint64, 0, 12)
		seq = append(seq, vpns[:k]...)
		seq = append(seq, 40) // never inserted
		seq = append(seq, vpns[k:10]...)
		if n := runBoth(t, "mid-miss", batched, mirror, seq); n != k {
			t.Fatalf("miss at %d returned %d hits", k, n)
		}
	}

	// Out-of-range VPN: a guaranteed miss by construction, charged like
	// any other probe.
	if n := runBoth(t, "vpnmax", batched, mirror, []uint64{0, 1, vpnMax + 2}); n != 2 {
		t.Fatalf("vpnMax probe returned %d hits", n)
	}

	// ASID tagging: entries inserted under ASID 1 must not hit a run
	// probed under ASID 0 and vice versa.
	for _, c := range []*SetAssoc{batched, mirror} {
		c.SetASID(1)
		c.Insert(KindGuest, 300, 42)
	}
	runBoth(t, "asid1", batched, mirror, []uint64{300, 0})
	for _, c := range []*SetAssoc{batched, mirror} {
		c.SetASID(0)
	}
	if n := runBoth(t, "asid0", batched, mirror, []uint64{300}); n != 0 {
		t.Fatalf("ASID-1 entry hit under ASID 0")
	}

	// LRU evolution: batched hits must refresh recency exactly as
	// sequential hits do. Probe a conflict set in a fixed order, then
	// insert a conflicting entry on both sides; the victim choice (and
	// so the whole slot image) only matches if every LRU stamp did.
	set0 := []uint64{0, 16, 32, 48} // 16 sets: all land in set 0
	for _, vpn := range set0[1:] {
		batched.Insert(KindGuest, vpn, 200+vpn)
		mirror.Insert(KindGuest, vpn, 200+vpn)
	}
	runBoth(t, "conflict-touch", batched, mirror, []uint64{32, 0, 48, 16})
	batched.Insert(KindGuest, 64, 9)
	mirror.Insert(KindGuest, 64, 9)
	checkSame(t, "post-evict", batched, mirror)
}

// TestLookupRunTwoWay pins the batched probe on padded sets: a 2-way
// cache's run must match per-probe Lookup, including the terminating
// miss charge, though its pad ways sit in every probed block.
func TestLookupRunTwoWay(t *testing.T) {
	batched := NewSetAssoc("b", 8, 2)
	mirror := NewSetAssoc("m", 8, 2)
	for vpn := uint64(0); vpn < 6; vpn++ {
		batched.Insert(KindGuest, vpn, 50+vpn)
		mirror.Insert(KindGuest, vpn, 50+vpn)
	}
	if n := runBoth(t, "twoway-hit", batched, mirror, []uint64{0, 1, 2, 3, 4, 5}); n != 6 {
		t.Fatalf("two-way full-hit run returned %d of 6", n)
	}
	if n := runBoth(t, "twoway-miss", batched, mirror, []uint64{0, 99, 1}); n != 1 {
		t.Fatalf("two-way miss run returned %d hits", n)
	}
}

// TestL1BatchedProbeAccounting pins the L1 decomposition TranslateBlock
// relies on: Lookup4KRun, then for its missing probe MissLarge while
// Only4K holds, else LookupLarge, must return what per-event L1.Lookup
// calls return and evolve all three structures' counters exactly as
// they do. With a 2M and a 1G entry resident, the large probes cover a
// hit and a miss in each structure.
func TestL1BatchedProbeAccounting(t *testing.T) {
	batched := NewL1(SandyBridgeL1)
	mirror := NewL1(SandyBridgeL1)
	if !batched.Only4K() {
		t.Fatal("fresh L1 reports large entries")
	}
	for p := uint64(0); p < 8; p++ {
		batched.Insert(p<<12, (100+p)<<12, addr.Page4K)
		mirror.Insert(p<<12, (100+p)<<12, addr.Page4K)
	}
	sameCounters := func(when string) {
		t.Helper()
		for i, pair := range [][2]*SetAssoc{
			{batched.by4K, mirror.by4K},
			{batched.by2M, mirror.by2M},
			{batched.by1G, mirror.by1G},
		} {
			bl, bh := pair[0].Stats()
			ml, mh := pair[1].Stats()
			if bl != ml || bh != mh {
				t.Fatalf("%s: structure %d stats diverge: batched %d/%d, mirror %d/%d", when, i, bl, bh, ml, mh)
			}
			if pair[0].clock != pair[1].clock {
				t.Fatalf("%s: structure %d clock diverges: %d vs %d", when, i, pair[0].clock, pair[1].clock)
			}
		}
	}

	// Per-event reference: L1.Lookup on hits and on one miss.
	vas := []uint64{0 << 12, 3 << 12, 7 << 12, 9 << 12} // last is unmapped
	var mirrorHits int
	for _, va := range vas {
		if _, _, hit := mirror.Lookup(va); hit {
			mirrorHits++
		}
	}

	// Batched: the 4K run stops at the miss, which then charges the
	// empty 2M/1G structures via MissLarge — exactly one decomposed
	// L1.Lookup.
	vpns := make([]uint64, len(vas))
	for i, va := range vas {
		vpns[i] = va >> 12
	}
	ppns := make([]uint64, len(vas))
	n := batched.Lookup4KRun(vpns, ppns)
	if n != mirrorHits {
		t.Fatalf("batched hits %d, per-event hits %d", n, mirrorHits)
	}
	batched.MissLarge()
	sameCounters("4K-only")

	// Hit PPNs are the inserted translations.
	for i := 0; i < n; i++ {
		if ppns[i] != 100+vpns[i] {
			t.Fatalf("ppn %d = %#x, want %#x", i, ppns[i], 100+vpns[i])
		}
	}

	// Large entries resident: each probe is a 4K run of one whose miss
	// completes through LookupLarge. The 2M page hits in the 2M
	// structure; the 1G page misses it and hits the 1G structure; the
	// last va misses both.
	for _, l := range []*L1{batched, mirror} {
		l.Insert(1<<21, 5<<21, addr.Page2M)
		l.Insert(1<<30, 3<<30, addr.Page1G)
	}
	if batched.Only4K() {
		t.Fatal("Only4K still true with large entries resident")
	}
	for _, c := range []struct {
		va, pa uint64
		size   addr.PageSize
		hit    bool
	}{
		{2 << 12, 102 << 12, addr.Page4K, true},
		{1<<21 + 0x1234, 5<<21 + 0x1234, addr.Page2M, true},
		{1<<30 + 5<<21 + 0x5678, 3<<30 + 5<<21 + 0x5678, addr.Page1G, true},
		{3<<30 + 0x9000, 0, 0, false},
	} {
		if pa, size, hit := mirror.Lookup(c.va); pa != c.pa || size != c.size || hit != c.hit {
			t.Fatalf("va %#x: Lookup (%#x, %v, %v), want (%#x, %v, %v)", c.va, pa, size, hit, c.pa, c.size, c.hit)
		}
		var pa uint64
		var size addr.PageSize
		hit := batched.Lookup4KRun([]uint64{c.va >> 12}, ppns[:1]) == 1
		if hit {
			pa, size = ppns[0]<<12+c.va&0xfff, addr.Page4K
		} else {
			pa, size, hit = batched.LookupLarge(c.va)
		}
		if pa != c.pa || size != c.size || hit != c.hit {
			t.Fatalf("va %#x: batched (%#x, %v, %v), want (%#x, %v, %v)", c.va, pa, size, hit, c.pa, c.size, c.hit)
		}
		sameCounters(fmt.Sprintf("va %#x", c.va))
	}

	// Only4K flips with each large size alone.
	batched.Flush()
	if !batched.Only4K() {
		t.Error("Only4K false after full flush")
	}
	batched.Insert(1<<21, 5<<21, addr.Page2M)
	if batched.Only4K() {
		t.Error("Only4K still true with a 2M entry resident")
	}
	batched.Flush()
	batched.Insert(1<<30, 3<<30, addr.Page1G)
	if batched.Only4K() {
		t.Error("Only4K still true with a 1G entry resident")
	}

	// structFor's full size mapping (Insert shortcuts the 4K case, so
	// pin it directly).
	if batched.structFor(addr.Page4K) != batched.by4K ||
		batched.structFor(addr.Page2M) != batched.by2M ||
		batched.structFor(addr.Page1G) != batched.by1G {
		t.Error("structFor size mapping wrong")
	}
}
