package pagetable

import (
	"testing"

	"vdirect/internal/addr"
)

// walkResult is everything WalkPath returns.
type walkResult struct {
	pa   uint64
	size addr.PageSize
	path [addr.Levels]uint64
	n    int
	ok   bool
}

func walkPath(tbl *Table, va uint64) walkResult {
	var r walkResult
	r.pa, r.size, r.path, r.n, r.ok = tbl.WalkPath(va)
	return r
}

// coldWalk walks va with the walk cache emptied for the one walk, then
// puts the cache back as it was: the result is the radix descent's.
func coldWalk(tbl *Table, va uint64) walkResult {
	saved := tbl.wc
	tbl.wc = [wcSlots]wcEntry{}
	r := walkPath(tbl, va)
	tbl.wc = saved
	return r
}

// cached reports whether the walk cache would serve a walk of va.
func cached(tbl *Table, va uint64) bool {
	e := &tbl.wc[va>>21&wcMask]
	return e.tag == va>>21 && e.gen == tbl.gen
}

// TestWalkCacheMatchesColdWalk: a walk the walk cache serves returns
// exactly what the radix descent returns — pa, size, path, n and ok —
// for present and not-present 4K entries under a cached PT, for 2M and
// 1G leaves (never cached, including one whose slot another span's PT
// holds), and for re-walks after an Unmap that frees table pages.
func TestWalkCacheMatchesColdWalk(t *testing.T) {
	tbl, _ := newTable(t)
	const span = 0x7f0000000000 // one 2M span of 4K pages
	for _, m := range []struct {
		va, pa uint64
		s      addr.PageSize
	}{
		{span, 0x5000, addr.Page4K},
		{span + 0x3000, 0x9000, addr.Page4K},
		{0x200000, 0x400000, addr.Page2M},
		{0x40000000, 0x80000000, addr.Page1G},
		// Shares the 2M leaf's walk-cache slot (256 spans apart).
		{0x200000 + 256<<21, 0xa000, addr.Page4K},
	} {
		if err := tbl.Map(m.va, m.pa, m.s); err != nil {
			t.Fatal(err)
		}
	}
	check := func(what string, va uint64, wantCached bool) {
		t.Helper()
		want := coldWalk(tbl, va)
		if got := cached(tbl, va); got != wantCached {
			t.Fatalf("%s: walk cache serves %#x = %v, want %v", what, va, got, wantCached)
		}
		if got := walkPath(tbl, va); got != want {
			t.Errorf("%s: walk of %#x = %+v, cold walk %+v", what, va, got, want)
		}
	}

	// The first walk of the span fills the cache.
	check("first 4K walk", span+0x123, false)
	check("present 4K leaf", span+0x3456, true)
	check("not-present PT entry", span+0x1000, true)
	check("2M leaf", 0x200000+0x1234, false)
	check("4K leaf sharing the 2M slot", 0x200000+256<<21+8, false)
	check("2M leaf, slot held by another span", 0x200000+0x5678, false)
	check("1G leaf", 0x40000000+0x123456, false)
	if r := walkPath(tbl, span+0x1000); r.ok || r.n != addr.Levels {
		t.Fatalf("not-present PT entry: ok=%v n=%d, want false %d", r.ok, r.n, addr.Levels)
	}

	// Unmapping the span's last page frees its PT (and the interior
	// tables above it): gen moves, and re-walks must see the empty tree.
	for _, va := range []uint64{span, span + 0x3000} {
		if err := tbl.Unmap(va, addr.Page4K); err != nil {
			t.Fatal(err)
		}
	}
	check("re-walk after the span's tables were freed", span+0x3000, false)
	if r := walkPath(tbl, span); r.ok || r.n != 1 {
		t.Fatalf("freed span: ok=%v n=%d, want false 1", r.ok, r.n)
	}
	// Remapping it refills the cache under the new generation.
	if err := tbl.Map(span+0x3000, 0xb000, addr.Page4K); err != nil {
		t.Fatal(err)
	}
	check("first walk of the rebuilt span", span+0x3000, false)
	check("rebuilt span, cached", span+0x3000, true)
}
