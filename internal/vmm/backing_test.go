package vmm

import (
	"slices"
	"testing"

	"vdirect/internal/addr"
	"vdirect/internal/pagetable"
	"vdirect/internal/physmem"
)

// fragmentHost allocates a fixed pattern of frames below frames, so
// the free space there is runs of at most six frames: AllocRun then
// returns short runs, and table pages land in the holes.
func fragmentHost(t *testing.T, h *Host, frames uint64) {
	t.Helper()
	for f := uint64(0); f < frames; f++ {
		if f%7 == 3 || f%61 < 5 {
			if err := h.Mem.AllocFrameAt(f); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// backPerPage backs a VM of cfg on h the way 4K nested backing worked
// before the bulk routine: a contiguous VM reserves its run and maps it
// one page at a time; a chunked VM takes each page's frame with
// AllocContiguous(1, 1) right before mapping it.
func backPerPage(t *testing.T, h *Host, cfg VMConfig) *VM {
	t.Helper()
	vm := &VM{Name: cfg.Name, host: h, cfg: cfg}
	npt, err := pagetable.New(h.Mem)
	if err != nil {
		t.Fatal(err)
	}
	vm.NPT = npt
	h.acquireOwnerID(vm)
	var base uint64
	if cfg.ContiguousBacking {
		first, err := h.Mem.AllocContiguous(cfg.MemorySize>>addr.PageShift4K, 1)
		if err != nil {
			t.Fatal(err)
		}
		base = physmem.FrameToAddr(first)
	}
	for gpa := uint64(0); gpa < cfg.MemorySize; gpa += addr.PageSize4K {
		if cfg.IOGap && gpa >= addr.IOGapStart && gpa < addr.IOGapEnd {
			continue
		}
		hpa := base + gpa
		if !cfg.ContiguousBacking {
			f, err := h.Mem.AllocContiguous(1, 1)
			if err != nil {
				t.Fatal(err)
			}
			hpa = physmem.FrameToAddr(f)
		}
		if err := npt.Map(gpa, hpa, addr.Page4K); err != nil {
			t.Fatal(err)
		}
		h.owners[physmem.AddrToFrame(hpa)] = ownerWord(vm.id, gpa)
	}
	return vm
}

// TestBulkBackingMatchesPerPage pins 4K nested backing placement. A VM
// that CreateVM backs in bulk must equal the same VM backed page by
// page on a twin host: every leaf (gPA→hPA), every nested table page
// (the hPAs its walks reference), every host owner word and the
// allocated-frame count. Both hosts' reverse maps are built before the
// VM, so the bulk path's own owner writes are the ones compared. Both hosts start fragmented, so chunked
// backing gets short runs and the table pages fill holes; the VMs above
// 4GB also cover the spans on both sides of the I/O gap.
func TestBulkBackingMatchesPerPage(t *testing.T) {
	const hostSize = addr.IOGapEnd + 128<<20
	cases := []VMConfig{
		{Name: "chunked", MemorySize: 24 << 20},
		{Name: "chunked-iogap", MemorySize: addr.IOGapEnd + 6<<20, IOGap: true},
		{Name: "contiguous", MemorySize: 24 << 20, ContiguousBacking: true},
		{Name: "contiguous-iogap", MemorySize: addr.IOGapEnd + 6<<20, IOGap: true, ContiguousBacking: true},
	}
	for _, cfg := range cases {
		t.Run(cfg.Name, func(t *testing.T) {
			cfg.NestedPageSize = addr.Page4K
			bulk, ref := NewHost(hostSize), NewHost(hostSize)
			bulk.ownerMap()
			ref.ownerMap()
			fragmentHost(t, bulk, 16<<10)
			fragmentHost(t, ref, 16<<10)
			vm, err := bulk.CreateVM(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := backPerPage(t, ref, cfg)

			var got, exp []pagetable.Ref
			for gpa := uint64(0); gpa < cfg.MemorySize; gpa += addr.PageSize4K {
				hpa1, _, g, ok1 := vm.NPT.Walk(gpa, got[:0])
				hpa2, _, e, ok2 := want.NPT.Walk(gpa, exp[:0])
				if ok1 != ok2 || hpa1 != hpa2 || !slices.Equal(g, e) {
					t.Fatalf("gPA %#x: bulk walk (%#x, %v) %v, per-page walk (%#x, %v) %v",
						gpa, hpa1, ok1, g, hpa2, ok2, e)
				}
				got, exp = g, e
			}
			if vm.NPT.Mappings() != want.NPT.Mappings() || vm.NPT.TablePages() != want.NPT.TablePages() {
				t.Fatalf("bulk NPT has %d leaves in %d table pages, per-page %d in %d",
					vm.NPT.Mappings(), vm.NPT.TablePages(), want.NPT.Mappings(), want.NPT.TablePages())
			}
			if got, exp := bulk.ownerMap(), ref.ownerMap(); !slices.Equal(got, exp) {
				for f := range got {
					if got[f] != exp[f] {
						t.Fatalf("host frame %d: bulk owner word %#x, per-page %#x", f, got[f], exp[f])
					}
				}
			}
			if a, b := bulk.Mem.AllocatedFrames(), ref.Mem.AllocatedFrames(); a != b {
				t.Fatalf("bulk backing allocated %d host frames, per-page %d", a, b)
			}
		})
	}
}
