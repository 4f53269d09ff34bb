package guestos

import (
	"errors"
	"slices"
	"testing"

	"vdirect/internal/addr"
	"vdirect/internal/mmu"
	"vdirect/internal/workload"
)

// TestLayOut lays one workload out both ways. The primary region is
// either a live guest segment with no PTE under it or eagerly paged at
// the asked size. Either way every other static region is reserved for
// demand paging but not backed, and exactly the stack's first 32 KB is
// present.
func TestLayOut(t *testing.T) {
	w := workload.New("gups", workload.Config{Seed: 1, MemoryMB: 8, Ops: 1000})
	prim := w.PrimaryRegion()
	for _, tc := range []struct {
		name     string
		guestSeg bool
		ps       addr.PageSize
	}{
		{"segment", true, addr.Page4K},
		{"paged 4K", false, addr.Page4K},
		{"paged 2M", false, addr.Page2M},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k, _ := newKernel(t, 64, false)
			p, err := k.CreateProcess("app")
			if err != nil {
				t.Fatal(err)
			}
			if err := p.LayOut(w, tc.guestSeg, tc.ps); err != nil {
				t.Fatal(err)
			}

			if tc.guestSeg {
				if p.PrimaryRegion() != prim {
					t.Errorf("primary region %v, want %v", p.PrimaryRegion(), prim)
				}
				if !p.Seg.Enabled() || !p.Seg.Contains(prim.Start) || !p.Seg.Contains(prim.End()-1) {
					t.Errorf("guest segment %v does not cover %v", p.Seg, prim)
				}
			} else {
				if p.Seg.Enabled() {
					t.Errorf("paged layout enabled guest segment %v", p.Seg)
				}
				for va := prim.Start; va < prim.End(); va += tc.ps.Bytes() {
					if _, s, ok := p.PT.Translate(va); !ok || s != tc.ps {
						t.Fatalf("primary page %#x: mapped %v size %v, want %v", va, ok, s, tc.ps)
					}
				}
			}

			for _, r := range w.StaticRegions() {
				if !p.inRegion(r.Start) || !p.inRegion(r.End()-1) {
					t.Errorf("static region %v not reserved", r)
				}
			}
			// Outside a paged primary region, the only present pages are
			// the stack's first 32 KB.
			var present []uint64
			p.PT.VisitLeaves(func(va, pa uint64, s addr.PageSize) bool {
				if tc.guestSeg || !prim.Contains(va) {
					present = append(present, va)
				}
				return true
			})
			if len(present) != 8 {
				t.Fatalf("%d pages present outside the paged primary region, want the stack's 8: %#x", len(present), present)
			}
			for i, va := range present {
				if want := workload.StackBase + uint64(i)*addr.PageSize4K; va != want {
					t.Errorf("present page %d at %#x, want %#x", i, va, want)
				}
			}
		})
	}
}

// TestFree frees the middle two of four present, TLB-cached pages: the
// trap sees each freed page once, in order, the frames go back to guest
// memory, and the freed pages fault through the MMU while their
// neighbours still translate.
func TestFree(t *testing.T) {
	k, _ := newKernel(t, 64, false)
	p, err := k.CreateProcess("app")
	if err != nil {
		t.Fatal(err)
	}
	r := addr.Range{Start: 1 << 30, Size: 4 * addr.PageSize4K}
	if err := p.MMapAt(r); err != nil {
		t.Fatal(err)
	}
	if err := p.Prefault(r); err != nil {
		t.Fatal(err)
	}
	m := mmu.New(mmu.Config{})
	m.SetGuestPageTable(p.PT)
	for va := r.Start; va < r.End(); va += addr.PageSize4K {
		if _, fault := m.Translate(va); fault != nil {
			t.Fatal(fault)
		}
	}
	free := k.Mem.FreeFrames()
	freed := addr.Range{Start: r.Start + addr.PageSize4K, Size: 2 * addr.PageSize4K}
	var trapped []uint64
	if err := p.Free(m, freed, func(va uint64) error {
		trapped = append(trapped, va)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := []uint64{freed.Start, freed.Start + addr.PageSize4K}; !slices.Equal(trapped, want) {
		t.Errorf("trap saw %#x, want %#x", trapped, want)
	}
	if got := k.Mem.FreeFrames(); got != free+2 {
		t.Errorf("free frames %d after Free, want %d", got, free+2)
	}
	for va := r.Start; va < r.End(); va += addr.PageSize4K {
		_, fault := m.Translate(va)
		if gone := freed.Contains(va); (fault != nil) != gone {
			t.Errorf("page %#x: fault %v, freed %v", va, fault, gone)
		}
	}

	// A trap error stops the Free at that page.
	stop := errors.New("trap")
	if err := p.Free(m, r, func(uint64) error { return stop }); !errors.Is(err, stop) {
		t.Errorf("Free with a failing trap returned %v, want %v", err, stop)
	}
}
