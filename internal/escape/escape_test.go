package escape

import (
	"fmt"
	"math"
	"testing"

	"vdirect/internal/trace"
)

func TestNoFalseNegatives(t *testing.T) {
	f := New(1)
	r := trace.NewRand(2)
	var members []uint64
	for i := 0; i < 16; i++ {
		pfn := r.Uint64n(1 << 36)
		f.Insert(pfn)
		members = append(members, pfn)
	}
	for _, pfn := range members {
		if !f.MayContain(pfn) {
			t.Fatalf("false negative for %#x — Bloom filters cannot do that", pfn)
		}
	}
	if f.Inserts() != 16 {
		t.Errorf("Inserts = %d", f.Inserts())
	}
}

func TestEmptyFilterContainsNothing(t *testing.T) {
	f := New(1)
	r := trace.NewRand(3)
	for i := 0; i < 10000; i++ {
		if f.MayContain(r.Uint64n(1 << 36)) {
			t.Fatal("empty filter claimed membership")
		}
	}
	if f.PopCount() != 0 {
		t.Error("empty filter has set bits")
	}
}

func TestFalsePositiveRateAt16BadPages(t *testing.T) {
	// The paper's claim: a 256-bit filter keeps overhead near zero with
	// 16 faulty pages. The analytic FP rate at n=16 is
	// (1-(1-1/64)^16)^4 ≈ 0.0024; measure within a loose band.
	f := New(42)
	r := trace.NewRand(43)
	members := map[uint64]bool{}
	for i := 0; i < 16; i++ {
		pfn := r.Uint64n(1 << 30)
		f.Insert(pfn)
		members[pfn] = true
	}
	const probes = 2000000
	fp := 0
	for i := 0; i < probes; i++ {
		pfn := r.Uint64n(1 << 30)
		if members[pfn] {
			continue
		}
		if f.MayContain(pfn) {
			fp++
		}
	}
	rate := float64(fp) / probes
	analytic := f.FalsePositiveEstimate()
	if rate > 0.02 {
		t.Errorf("FP rate = %.5f, far above paper's near-zero claim", rate)
	}
	if math.Abs(rate-analytic) > 0.01 {
		t.Errorf("measured %.5f vs analytic %.5f disagree", rate, analytic)
	}
}

func TestFalsePositiveEstimateMonotone(t *testing.T) {
	f := New(5)
	prev := f.FalsePositiveEstimate()
	if prev != 0 {
		t.Errorf("empty filter FP estimate = %g", prev)
	}
	r := trace.NewRand(6)
	for i := 0; i < 32; i++ {
		f.Insert(r.Uint64n(1 << 36))
		cur := f.FalsePositiveEstimate()
		if cur < prev {
			t.Fatalf("FP estimate decreased at n=%d", i+1)
		}
		prev = cur
	}
}

func TestClear(t *testing.T) {
	f := New(7)
	f.Insert(12345)
	f.Clear()
	if f.MayContain(12345) {
		t.Error("Clear left membership")
	}
	if f.Inserts() != 0 || f.PopCount() != 0 {
		t.Error("Clear left state")
	}
}

func bitsEqual(a, b [][]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for h := range a {
		if len(a[h]) != len(b[h]) {
			return false
		}
		for w := range a[h] {
			if a[h][w] != b[h][w] {
				return false
			}
		}
	}
	return true
}

func TestDeterministicAcrossInstances(t *testing.T) {
	a, b := New(77), New(77)
	a.Insert(4242)
	b.Insert(4242)
	if !bitsEqual(a.banks, b.banks) {
		t.Error("same seed produced different filters")
	}
	c := New(78)
	c.Insert(4242)
	if bitsEqual(a.banks, c.banks) {
		t.Error("different seeds produced identical filters (suspicious)")
	}
}

func TestSizedFilters(t *testing.T) {
	// A bigger filter must have a lower (or equal) FP rate at the same
	// load; a tiny one saturates.
	load := 16
	rate := func(bits int) float64 {
		f := NewSized(bits, 4, 9)
		r := trace.NewRand(10)
		members := map[uint64]bool{}
		for i := 0; i < load; i++ {
			pfn := r.Uint64n(1 << 30)
			f.Insert(pfn)
			members[pfn] = true
		}
		fp := 0
		const probes = 100000
		for i := 0; i < probes; i++ {
			pfn := r.Uint64n(1 << 30)
			if !members[pfn] && f.MayContain(pfn) {
				fp++
			}
		}
		return float64(fp) / probes
	}
	small, std, big := rate(64), rate(256), rate(1024)
	if !(big <= std && std <= small) {
		t.Errorf("FP rates not monotone in size: 64b=%.4f 256b=%.4f 1024b=%.4f", small, std, big)
	}
	if std > 0.02 {
		t.Errorf("256-bit FP rate %.4f too high", std)
	}
}

func TestNewSizedRejectsBadGeometry(t *testing.T) {
	for _, c := range []struct{ bits, hashes int }{{0, 4}, {256, 0}, {255, 4}, {96, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSized(%d,%d) did not panic", c.bits, c.hashes)
				}
			}()
			NewSized(c.bits, c.hashes, 1)
		}()
	}
}

func TestPopCountBounded(t *testing.T) {
	f := New(11)
	r := trace.NewRand(12)
	for i := 0; i < 16; i++ {
		f.Insert(r.Uint64n(1 << 36))
	}
	// 16 inserts x 4 banks sets at most 64 bits.
	if pc := f.PopCount(); pc > 64 || pc < 4 {
		t.Errorf("PopCount = %d, want in [4, 64]", pc)
	}
}

// goldenPFNs covers zero, small frames, frames at the top of the 40-bit
// input, and frames with bits above it (which H3 ignores).
var goldenPFNs = []uint64{0, 1, 0x2a, 0xfff, 0x12345, 0x3_0000_0000, 0xf_ffff_ffff, 0xff_ffff_ffff, 1 << 40, 0xdead_beef_cafe_f00d}

// TestGoldenBits pins the filter contents of the MMU's two hardware
// instances (seeds 1 and 2) after a fixed insert list. Any change to the
// H3 draw sequence or to how hash evaluates it changes these words.
func TestGoldenBits(t *testing.T) {
	want := map[uint64][]uint64{
		1: {0x0001242001001401, 0x4100820020040019, 0x4200000c28000091, 0x0008008031010401},
		2: {0x3000800200020c03, 0x2000860080410011, 0xd000800400010009, 0x0000009004918201},
	}
	for seed, w := range want {
		f := New(seed)
		for _, pfn := range goldenPFNs {
			f.Insert(pfn)
		}
		for h, bank := range f.banks {
			if len(bank) != 1 || bank[0] != w[h] {
				t.Errorf("New(%d) bank %d = %#x, want [%#016x]", seed, h, bank, w[h])
			}
		}
	}
}

// h3Reference is the H3 definition the tables must reproduce: the XOR
// of the rows selected by the frame's set input bits, one bit at a time.
func h3Reference(rows [][inputBits]uint16, h int, pfn uint64) uint {
	var out uint16
	for b := 0; b < inputBits; b++ {
		if pfn&(1<<uint(b)) != 0 {
			out ^= rows[h][b]
		}
	}
	return uint(out)
}

// checkH3 fails t if any of f's hash functions disagrees with the
// bit-at-a-time H3 definition on pfn.
func checkH3(t testing.TB, f *Filter, rows [][inputBits]uint16, pfn uint64) {
	t.Helper()
	for h := range rows {
		if got, want := f.hash(h, pfn), h3Reference(rows, h, pfn); got != want {
			t.Fatalf("%d-bit %d-hash filter: hash %d of %#x = %d, H3 rows give %d",
				f.bankBits*uint(len(f.banks)), len(f.banks), h, pfn, got, want)
		}
	}
}

// TestHashMatchesH3Rows pins the chunk tables to the H3 rows they are
// built from, for every hash function of several geometries, on random
// full 64-bit frames (bits at and above inputBits must be ignored).
func TestHashMatchesH3Rows(t *testing.T) {
	for _, g := range []struct{ bits, hashes int }{{64, 4}, {256, 4}, {1024, 4}, {256, 1}, {512, 8}} {
		seed := uint64(g.bits*31 + g.hashes)
		f := NewSized(g.bits, g.hashes, seed)
		rows := h3Rows(g.hashes, uint(g.bits/g.hashes), seed)
		r := trace.NewRand(seed + 1)
		for i := 0; i < 100_000; i++ {
			checkH3(t, f, rows, r.Uint64())
		}
	}
}

// FuzzH3Table checks the paper's filter geometry against the H3
// definition for any seed and frame.
func FuzzH3Table(f *testing.F) {
	f.Add(uint64(1), uint64(0))
	f.Add(uint64(2), uint64(0xff_ffff_ffff))
	f.Add(uint64(0), uint64(1<<40))
	f.Add(uint64(0xE5CA9EF117E4), uint64(0xdead_beef_cafe_f00d))
	f.Fuzz(func(t *testing.T, seed, pfn uint64) {
		checkH3(t, New(seed), h3Rows(NumHashes, bankBits, seed), pfn)
	})
}

// TestMayContainMatchesReference checks every probe answer against a
// reference that rebuilds the banks from the set of inserted frames
// with the bit-at-a-time H3 definition: a frame may be contained
// exactly when each bank has the bit its hash selects. The script
// covers the empty filter, one, two and sixteen pages, a Clear, and
// one page inserted again, each probed on the inserted frames plus
// 4,096 random 36-bit frames.
func TestMayContainMatchesReference(t *testing.T) {
	for _, g := range []struct{ bits, hashes int }{{256, 4}, {256, 1}, {512, 8}} {
		seed := uint64(g.bits*17 + g.hashes)
		f := NewSized(g.bits, g.hashes, seed)
		rows := h3Rows(g.hashes, uint(g.bits/g.hashes), seed)
		r := trace.NewRand(seed + 1)
		probes := make([]uint64, 4096)
		for i := range probes {
			probes[i] = r.Uint64n(1 << 36)
		}
		var members []uint64
		check := func(step string) {
			t.Helper()
			set := make([]map[uint]bool, g.hashes)
			for h := range set {
				set[h] = map[uint]bool{}
				for _, m := range members {
					set[h][h3Reference(rows, h, m)] = true
				}
			}
			for _, pfn := range append(append([]uint64(nil), members...), probes...) {
				want := true
				for h := range set {
					want = want && set[h][h3Reference(rows, h, pfn)]
				}
				if got := f.MayContain(pfn); got != want {
					t.Fatalf("%d-bit %d-hash filter, %s: MayContain(%#x) = %v, reference %v",
						g.bits, g.hashes, step, pfn, got, want)
				}
			}
		}
		insert := func(pfn uint64) {
			f.Insert(pfn)
			members = append(members, pfn)
		}
		check("fresh")
		for len(members) < 16 {
			insert(r.Uint64n(1 << 36))
			if n := len(members); n == 1 || n == 2 || n == 16 {
				check(fmt.Sprintf("after %d inserts", n))
			}
		}
		f.Clear()
		members = nil
		check("after Clear")
		insert(r.Uint64n(1 << 36))
		check("one page after Clear")
	}
}
