package pagetable

import (
	"testing"
	"testing/quick"

	"vdirect/internal/addr"
	"vdirect/internal/physmem"
	"vdirect/internal/trace"
)

func newTable(t *testing.T) (*Table, *physmem.Memory) {
	t.Helper()
	mem := physmem.New(physmem.Config{Name: "pt", Size: 64 << 20})
	tbl, err := New(mem)
	if err != nil {
		t.Fatal(err)
	}
	return tbl, mem
}

func TestMapWalk4K(t *testing.T) {
	tbl, _ := newTable(t)
	if err := tbl.Map(0x7f0000001000, 0x2000, addr.Page4K); err != nil {
		t.Fatal(err)
	}
	pa, s, refs, ok := tbl.Walk(0x7f0000001234, nil)
	if !ok {
		t.Fatal("walk failed")
	}
	if pa != 0x2234 {
		t.Errorf("pa = %#x, want 0x2234", pa)
	}
	if s != addr.Page4K {
		t.Errorf("size = %v", s)
	}
	if len(refs) != 4 {
		t.Errorf("4K walk made %d references, want 4", len(refs))
	}
	for i, r := range refs {
		if r.Level != i {
			t.Errorf("ref %d at level %d", i, r.Level)
		}
	}
}

func TestWalkReferenceAddressesAreDistinctTablePages(t *testing.T) {
	tbl, _ := newTable(t)
	if err := tbl.Map(0x1000, 0x5000, addr.Page4K); err != nil {
		t.Fatal(err)
	}
	_, _, refs, ok := tbl.Walk(0x1000, nil)
	if !ok || len(refs) != 4 {
		t.Fatal("walk shape wrong")
	}
	pages := map[uint64]bool{}
	for _, r := range refs {
		pages[r.Addr>>12] = true
	}
	if len(pages) != 4 {
		t.Errorf("walk touched %d distinct table pages, want 4", len(pages))
	}
	if refs[0].Addr>>12 != tbl.Root() {
		t.Error("first reference is not in the root table")
	}
}

func TestMapWalk2M1G(t *testing.T) {
	tbl, _ := newTable(t)
	if err := tbl.Map(0x40000000, 0x80000000, addr.Page1G); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Map(0x200000, 0x600000, addr.Page2M); err != nil {
		t.Fatal(err)
	}
	pa, s, refs, ok := tbl.Walk(0x40000000+12345, nil)
	if !ok || pa != 0x80000000+12345 || s != addr.Page1G {
		t.Errorf("1G walk: pa=%#x s=%v ok=%v", pa, s, ok)
	}
	if len(refs) != 2 {
		t.Errorf("1G walk made %d refs, want 2", len(refs))
	}
	pa, s, refs, ok = tbl.Walk(0x200000+999, nil)
	if !ok || pa != 0x600000+999 || s != addr.Page2M {
		t.Errorf("2M walk: pa=%#x s=%v ok=%v", pa, s, ok)
	}
	if len(refs) != 3 {
		t.Errorf("2M walk made %d refs, want 3", len(refs))
	}
}

func TestMisalignedMap(t *testing.T) {
	tbl, _ := newTable(t)
	if err := tbl.Map(0x1234, 0x2000, addr.Page4K); err != ErrMisaligned {
		t.Errorf("misaligned va err = %v", err)
	}
	if err := tbl.Map(0x1000, 0x2100, addr.Page4K); err != ErrMisaligned {
		t.Errorf("misaligned pa err = %v", err)
	}
	if err := tbl.Map(0x1000, 0x200000, addr.Page2M); err != ErrMisaligned {
		t.Errorf("misaligned 2M va err = %v", err)
	}
}

func TestOverlapRejected(t *testing.T) {
	tbl, _ := newTable(t)
	if err := tbl.Map(0x200000, 0x400000, addr.Page2M); err != nil {
		t.Fatal(err)
	}
	// Same va again.
	if err := tbl.Map(0x200000, 0x800000, addr.Page2M); err != ErrOverlap {
		t.Errorf("dup 2M err = %v", err)
	}
	// 4K inside an existing 2M.
	if err := tbl.Map(0x201000, 0x1000, addr.Page4K); err != ErrOverlap {
		t.Errorf("4K under 2M err = %v", err)
	}
	// 2M over existing 4K.
	if err := tbl.Map(0x400000+0x1000, 0x1000, addr.Page4K); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Map(0x400000, 0xa00000, addr.Page2M); err != ErrOverlap {
		t.Errorf("2M over 4K err = %v", err)
	}

	// MapRange4K stops at an overlap exactly where ascending per-page Map
	// calls would: same count, error, leaves and table pages. The present
	// entry sits at the first, a middle or the last entry of the PT span
	// [span, span+2M), or past the PT boundary the run crosses.
	const span, next = 0x400000, 0x600000
	cases := []struct {
		name    string
		va, n   uint64
		present uint64
		size    addr.PageSize
	}{
		{"first", span, 16, span, addr.Page4K},
		{"middle", span + 8<<12, 300, span + 200<<12, addr.Page4K},
		{"last", span + 500<<12, 12, span + 511<<12, addr.Page4K},
		{"crossing-first", span + 500<<12, 40, next, addr.Page4K},
		{"crossing-middle", span + 500<<12, 40, next + 20<<12, addr.Page4K},
		{"crossing-2M", span + 500<<12, 40, next, addr.Page2M},
		{"crossing-clear", span + 500<<12, 40, next + 2<<20, addr.Page4K},
	}
	for _, c := range cases {
		bulk, _ := newTable(t)
		ref, _ := newTable(t)
		for _, tb := range []*Table{bulk, ref} {
			if err := tb.Map(c.present, 0x2000000, c.size); err != nil {
				t.Fatal(err)
			}
		}
		const pa = 0x1000000
		got, gotErr := bulk.MapRange4K(c.va, pa, c.n)
		var want uint64
		var wantErr error
		for ; want < c.n; want++ {
			if wantErr = ref.Map(c.va+want<<12, pa+want<<12, addr.Page4K); wantErr != nil {
				break
			}
		}
		if got != want || gotErr != wantErr {
			t.Errorf("%s: MapRange4K = (%d, %v), per-page Map (%d, %v)", c.name, got, gotErr, want, wantErr)
		}
		if bulk.Mappings() != ref.Mappings() || bulk.TablePages() != ref.TablePages() {
			t.Errorf("%s: MapRange4K leaves %d leaves in %d table pages, per-page Map %d in %d",
				c.name, bulk.Mappings(), bulk.TablePages(), ref.Mappings(), ref.TablePages())
		}
		for va := c.va; va < c.va+c.n<<12; va += addr.PageSize4K {
			pa1, s1, ok1 := bulk.Translate(va)
			pa2, s2, ok2 := ref.Translate(va)
			if pa1 != pa2 || s1 != s2 || ok1 != ok2 {
				t.Fatalf("%s: va %#x translates to (%#x, %v, %v) after MapRange4K, (%#x, %v, %v) after Map",
					c.name, va, pa1, s1, ok1, pa2, s2, ok2)
			}
		}
	}
}

func TestWalkMissRecordsPartialRefs(t *testing.T) {
	tbl, _ := newTable(t)
	_, _, refs, ok := tbl.Walk(0xdead000, nil)
	if ok {
		t.Fatal("walk of unmapped va succeeded")
	}
	if len(refs) != 1 {
		t.Errorf("unmapped walk made %d refs, want 1 (root miss)", len(refs))
	}
	// Map a sibling so intermediate levels exist, then walk a miss that
	// shares upper levels.
	if err := tbl.Map(0x1000, 0x1000, addr.Page4K); err != nil {
		t.Fatal(err)
	}
	_, _, refs, ok = tbl.Walk(0x3000, nil)
	if ok || len(refs) != 4 {
		t.Errorf("near-miss walk: ok=%v refs=%d, want 4 refs then fault", ok, len(refs))
	}
}

func TestUnmapAndReclaim(t *testing.T) {
	tbl, _ := newTable(t)
	base := tbl.TablePages()
	if err := tbl.Map(0x1000, 0x1000, addr.Page4K); err != nil {
		t.Fatal(err)
	}
	if tbl.TablePages() != base+3 {
		t.Errorf("table pages after map = %d, want %d", tbl.TablePages(), base+3)
	}
	if err := tbl.Unmap(0x1000, addr.Page4K); err != nil {
		t.Fatal(err)
	}
	if tbl.TablePages() != base {
		t.Errorf("table pages after unmap = %d, want %d (reclaimed)", tbl.TablePages(), base)
	}
	if tbl.Mappings() != 0 {
		t.Errorf("mappings = %d", tbl.Mappings())
	}
	if err := tbl.Unmap(0x1000, addr.Page4K); err != ErrNotMapped {
		t.Errorf("double unmap err = %v", err)
	}
}

func TestUnmapSizeClash(t *testing.T) {
	tbl, _ := newTable(t)
	if err := tbl.Map(0x200000, 0x400000, addr.Page2M); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Unmap(0x200000, addr.Page4K); err != ErrSizeClash {
		t.Errorf("unmap 4K of 2M err = %v", err)
	}
	if err := tbl.Map(0x1000, 0x1000, addr.Page4K); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Unmap(0x0, addr.Page2M); err != ErrSizeClash {
		t.Errorf("unmap 2M of 4K err = %v", err)
	}
}

func TestSharedIntermediateNotReclaimed(t *testing.T) {
	tbl, _ := newTable(t)
	// Two 4K pages share PML4/PDPT/PD/PT.
	tbl.Map(0x1000, 0x1000, addr.Page4K)
	tbl.Map(0x2000, 0x2000, addr.Page4K)
	pages := tbl.TablePages()
	if err := tbl.Unmap(0x1000, addr.Page4K); err != nil {
		t.Fatal(err)
	}
	if tbl.TablePages() != pages {
		t.Error("shared tables reclaimed while sibling mapping lives")
	}
	if _, _, ok := tbl.Translate(0x2fff); !ok {
		t.Error("sibling mapping lost")
	}
}

func TestTranslateMatchesWalk(t *testing.T) {
	tbl, _ := newTable(t)
	r := trace.NewRand(5)
	type m struct{ va, pa uint64 }
	var ms []m
	for i := 0; i < 200; i++ {
		va := (r.Uint64n(1<<30) &^ 0xfff)
		pa := (r.Uint64n(1<<26) &^ 0xfff)
		if err := tbl.Map(va, pa, addr.Page4K); err == nil {
			ms = append(ms, m{va, pa})
		}
	}
	for _, x := range ms {
		p1, s1, ok1 := tbl.Translate(x.va + 7)
		p2, s2, _, ok2 := tbl.Walk(x.va+7, nil)
		if !ok1 || !ok2 || p1 != p2 || s1 != s2 {
			t.Fatalf("Translate/Walk disagree at %#x", x.va)
		}
		if p1 != x.pa+7 {
			t.Fatalf("wrong translation %#x -> %#x, want %#x", x.va, p1, x.pa)
		}
	}
}

func TestRemap(t *testing.T) {
	tbl, _ := newTable(t)
	tbl.Map(0x1000, 0x2000, addr.Page4K)
	if err := tbl.Remap(0x1000, 0x9000); err != nil {
		t.Fatal(err)
	}
	pa, _, ok := tbl.Translate(0x1abc)
	if !ok || pa != 0x9abc {
		t.Errorf("after remap pa = %#x", pa)
	}
	if err := tbl.Remap(0x5000, 0x9000); err != ErrNotMapped {
		t.Errorf("remap unmapped err = %v", err)
	}
	tbl.Map(0x200000, 0x400000, addr.Page2M)
	if err := tbl.Remap(0x200000, 0x401000); err != ErrMisaligned {
		t.Errorf("remap misaligned err = %v", err)
	}
}

func TestVisitLeaves(t *testing.T) {
	tbl, _ := newTable(t)
	tbl.Map(0x1000, 0xa000, addr.Page4K)
	tbl.Map(0x200000, 0x400000, addr.Page2M)
	tbl.Map(0x40000000, 0x80000000, addr.Page1G)
	var got []uint64
	tbl.VisitLeaves(func(va, pa uint64, s addr.PageSize) bool {
		got = append(got, va)
		return true
	})
	if len(got) != 3 || got[0] != 0x1000 || got[1] != 0x200000 || got[2] != 0x40000000 {
		t.Errorf("VisitLeaves order = %#v", got)
	}
	// Early stop.
	count := 0
	tbl.VisitLeaves(func(va, pa uint64, s addr.PageSize) bool {
		count++
		return false
	})
	if count != 1 {
		t.Errorf("early stop visited %d", count)
	}
}

func TestDestroyReturnsAllFrames(t *testing.T) {
	mem := physmem.New(physmem.Config{Name: "pt", Size: 64 << 20})
	tbl, err := New(mem)
	if err != nil {
		t.Fatal(err)
	}
	r := trace.NewRand(3)
	for i := 0; i < 300; i++ {
		va := r.Uint64n(1<<40) &^ 0xfff
		tbl.Map(va, uint64(i)<<12, addr.Page4K)
	}
	if err := tbl.Destroy(); err != nil {
		t.Fatal(err)
	}
	if mem.AllocatedFrames() != 0 {
		t.Errorf("leaked %d frames", mem.AllocatedFrames())
	}
}

func TestMapUnmapProperty(t *testing.T) {
	// Property: map then unmap of random disjoint pages leaves the table
	// with only the root allocated and no translations.
	f := func(seed uint64) bool {
		mem := physmem.New(physmem.Config{Name: "prop", Size: 64 << 20})
		tbl, err := New(mem)
		if err != nil {
			return false
		}
		r := trace.NewRand(seed)
		seen := map[uint64]bool{}
		var vas []uint64
		for i := 0; i < 64; i++ {
			va := r.Uint64n(1<<35) &^ 0xfff
			if seen[va] {
				continue
			}
			seen[va] = true
			if tbl.Map(va, uint64(i)<<12, addr.Page4K) != nil {
				return false
			}
			vas = append(vas, va)
		}
		for _, va := range vas {
			if tbl.Unmap(va, addr.Page4K) != nil {
				return false
			}
		}
		return tbl.TablePages() == 1 && tbl.Mappings() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestAllocatorExhaustionSurfaces(t *testing.T) {
	mem := physmem.New(physmem.Config{Name: "tiny", Size: 2 * addr.PageSize4K})
	tbl, err := New(mem)
	if err != nil {
		t.Fatal(err)
	}
	// Root took 1 frame; mapping needs 3 more intermediate pages.
	if err := tbl.Map(0x1000, 0x1000, addr.Page4K); err == nil {
		t.Error("map with exhausted allocator succeeded")
	}
}
