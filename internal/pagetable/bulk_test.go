package pagetable

import (
	"errors"
	"fmt"
	"testing"

	"vdirect/internal/addr"
	"vdirect/internal/physmem"
	"vdirect/internal/trace"
)

// errText renders an error for comparison: the table-page allocation
// errors are wrapped, so two runs' errors are equal when their text is.
func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// outcome names how a bulk map ended.
func outcome(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrOverlap):
		return "overlap"
	case errors.Is(err, physmem.ErrNoContiguous):
		return "no data frame"
	case errors.Is(err, physmem.ErrOutOfMemory):
		return "no table page"
	}
	return err.Error()
}

// bulkVA returns a random page-aligned va near a 2M, 1G or 512G
// boundary, so spans cross windows whose PT, PD and PDPT pages are
// missing, shared or already present.
func bulkVA(rng *trace.Rand) uint64 {
	var b uint64
	switch rng.Uint64n(3) {
	case 0:
		b = (1 + rng.Uint64n(8)) << 21
	case 1:
		b = (1 + rng.Uint64n(4)) << 30
	default:
		b = (1 + rng.Uint64n(2)) << 39
	}
	return b - 4<<20 + rng.Uint64n(8<<20)&^(addr.PageSize4K-1)
}

// samePaths compares the two tables' walks of every page in [va, va+n
// pages): translations, page sizes, fault levels and the table-page
// frame behind every reference.
func samePaths(t *testing.T, what string, bulk, ref *Table, va, n uint64) bool {
	t.Helper()
	for i := uint64(0); i < n; i++ {
		v := va + i<<addr.PageShift4K
		var p1, p2 [addr.Levels]uint64
		pa1, s1, n1, ok1 := bulk.WalkPath(v, &p1)
		pa2, s2, n2, ok2 := ref.WalkPath(v, &p2)
		if pa1 != pa2 || s1 != s2 || n1 != n2 || ok1 != ok2 || p1 != p2 {
			t.Errorf("%s: va %#x walks to (%#x, %v, %d, %v) %#x after the bulk map, (%#x, %v, %d, %v) %#x after per-page Map",
				what, v, pa1, s1, n1, ok1, p1[:n1], pa2, s2, n2, ok2, p2[:n2])
			return false
		}
	}
	return true
}

// TestBulkMapMatchesPerPageMap drives MapRange4K and Back4K over random
// spans of tables pre-filled with random 4K and 2M leaves, beside a
// twin table that maps the same span one page at a time: ascending Map
// for MapRange4K, and ascending AllocContiguous(1, 1) (the lowest free
// frame, as AllocFrame takes) + Map for Back4K. Both must stop at the
// same page with the same error and leave the same table pages in the
// same frames on every walk path, the same translations and the same
// allocated frames. A successful bulk map must also have used every
// table page it reserved, and a large one must make few allocations.
func TestBulkMapMatchesPerPageMap(t *testing.T) {
	outcomes := map[string]int{}
	for seed := uint64(1); seed <= 12; seed++ {
		rng := trace.NewRand(seed)
		size := uint64(64 << 20)
		if seed%3 == 0 {
			size = 6 << 20 // runs out of frames inside a span
		}
		bmem := physmem.New(physmem.Config{Name: "bulk", Size: size})
		rmem := physmem.New(physmem.Config{Name: "ref", Size: size})
		bulk, err := New(bmem)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := New(rmem)
		if err != nil {
			t.Fatal(err)
		}
		for op := 0; op < 24; op++ {
			// Pre-fill: a few random leaves the next spans may run into.
			for k := rng.Uint64n(4); k > 0; k-- {
				s := addr.Page4K
				if rng.Uint64n(3) == 0 {
					s = addr.Page2M
				}
				va := addr.AlignDown(bulkVA(rng), s.Bytes())
				pa := addr.AlignDown(rng.Uint64n(1<<34), s.Bytes())
				e1, e2 := bulk.Map(va, pa, s), ref.Map(va, pa, s)
				if errText(e1) != errText(e2) {
					t.Fatalf("seed %d: pre-fill Map(%#x, %v) = %v and %v", seed, va, s, e1, e2)
				}
			}
			va, n := bulkVA(rng), 1+rng.Uint64n(2048)
			what := fmt.Sprintf("seed %d op %d", seed, op)
			var got, want uint64
			var gotErr, wantErr error
			if rng.Uint64n(2) == 0 {
				what += fmt.Sprintf(" MapRange4K(%#x, %d)", va, n)
				pa := rng.Uint64n(1<<34) &^ (addr.PageSize4K - 1)
				got, gotErr = bulk.MapRange4K(va, pa, n)
				for ; want < n; want++ {
					if wantErr = ref.Map(va+want<<12, pa+want<<12, addr.Page4K); wantErr != nil {
						break
					}
				}
			} else {
				what += fmt.Sprintf(" Back4K(%#x, %d)", va, n)
				got, gotErr = bulk.Back4K(va, n, bmem, nil)
				for ; want < n; want++ {
					f, err := rmem.AllocContiguous(1, 1)
					if err != nil {
						wantErr = err
						break
					}
					if wantErr = ref.Map(va+want<<12, f<<12, addr.Page4K); wantErr != nil {
						rmem.FreeFrame(f)
						break
					}
				}
			}
			if got != want || errText(gotErr) != errText(wantErr) {
				t.Fatalf("%s = (%d, %v), per-page (%d, %v)", what, got, gotErr, want, wantErr)
			}
			outcomes[outcome(gotErr)]++
			if gotErr == nil && (len(bulk.slab) != 0 || bulk.pending != 0) {
				t.Fatalf("%s leaves %d reserved nodes and %d pending: the reservation over-counted",
					what, len(bulk.slab), bulk.pending)
			}
			if bulk.TablePages() != ref.TablePages() || bulk.Mappings() != ref.Mappings() {
				t.Fatalf("%s leaves %d table pages and %d leaves, per-page %d and %d",
					what, bulk.TablePages(), bulk.Mappings(), ref.TablePages(), ref.Mappings())
			}
			if !samePaths(t, what, bulk, ref, va, n) {
				return
			}
			for f := uint64(0); f < size>>addr.PageShift4K; f++ {
				if bmem.IsAllocated(f) != rmem.IsAllocated(f) {
					t.Fatalf("%s: frame %#x allocated %v, per-page %v", what, f, bmem.IsAllocated(f), rmem.IsAllocated(f))
				}
			}
		}
	}
	// The spans must have reached every way a bulk map ends: success,
	// an overlap, and running out of data frames or table pages.
	for _, w := range []string{"ok", "overlap", "no data frame", "no table page"} {
		if outcomes[w] == 0 {
			t.Errorf("no span ended %q; outcomes %v", w, outcomes)
		}
	}

	// A fresh table's 64 MB Back4K adds 34 table pages (32 PTs, a PD
	// and a PDPT), which fill two slabs, and three child-pointer
	// arrays, one per interior level: five allocations, where one per
	// table page would make 37.
	const runs = 3
	var mems [runs + 1]*physmem.Memory
	var tbls [runs + 1]*Table
	for i := range tbls {
		mems[i] = physmem.New(physmem.Config{Name: "slab", Size: 80 << 20})
		tbl, err := New(mems[i])
		if err != nil {
			t.Fatal(err)
		}
		tbls[i] = tbl
	}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := tbls[i].Back4K(1<<30, 64<<20>>addr.PageShift4K, mems[i], nil); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 5 || tbls[0].TablePages() != 35 {
		t.Errorf("64 MB Back4K made %v allocations and %d table pages with the root, want at most 5 and 35",
			allocs, tbls[0].TablePages())
	}
}
