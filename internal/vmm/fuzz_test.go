package vmm

import (
	"fmt"
	"testing"

	"vdirect/internal/addr"
	"vdirect/internal/physmem"
)

// FuzzHostMemoryOps drives randomized host memory-management sequences
// — ballooning, memory hotplug add/remove, host compaction, VMM
// segment enablement, multi-VM creation — and asserts the structural
// invariants the translation stack depends on: every nested page-table
// leaf targets a host frame that is actually allocated, no host frame
// backs two guest pages, the owner bookkeeping agrees with the NPTs,
// and an enabled VMM segment agrees with the nested page table on
// every covered gPA.
func FuzzHostMemoryOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 0, 10, 1, 20, 2})
	f.Add([]byte{1, 4, 4, 0, 200, 3, 1, 15, 2, 0, 7})
	f.Add([]byte{0, 3, 2, 2, 1, 1, 1, 0, 0, 4, 4, 3, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<10 {
			return
		}
		pos := 0
		next := func() byte {
			if pos >= len(data) {
				return 0
			}
			b := data[pos]
			pos++
			return b
		}
		host := NewHost(96 << 20)
		// Build the reverse map now, so the operations below keep it
		// current and the BackedFrames check compares their bookkeeping
		// with the leaves, not a map built from those same leaves.
		host.ownerMap()
		contig := next()&1 == 0
		vms := make([]*VM, 0, 3)
		newVM := func() {
			vm, err := host.CreateVM(VMConfig{
				Name:              "fuzz",
				MemorySize:        8 << 20,
				NestedPageSize:    addr.Page4K,
				ContiguousBacking: contig,
			})
			if err != nil {
				return // host memory exhausted or fragmented: legal
			}
			vms = append(vms, vm)
		}
		newVM()
		var hotplugged []addr.Range

		for pos < len(data) {
			if len(vms) == 0 {
				break
			}
			vm := vms[int(next())%len(vms)]
			switch next() % 6 {
			case 0: // balloon a guest frame
				f := uint64(next()) % (vm.GuestMem.Size() >> addr.PageShift4K)
				_ = vm.Balloon([]uint64{f}) // already ballooned: legal error
			case 1: // hotplug add
				size := (uint64(next())%8 + 1) << 20
				if r, err := vm.HotplugAdd(size); err == nil {
					hotplugged = append(hotplugged, r)
				}
			case 2: // hotplug remove the oldest added range
				if len(hotplugged) > 0 {
					_ = vm.HotplugRemove(hotplugged[0])
					hotplugged = hotplugged[1:]
				}
			case 3: // host compaction
				if _, err := host.Compact(); err != nil {
					t.Fatalf("compact: %v", err)
				}
			case 4: // try to (re)enable the VMM segment
				seg, err := vm.TryEnableVMMSegment()
				if err != nil {
					break // fragmented: legal error
				}
				// A freshly enabled segment must agree with the nested
				// page table on every covered gPA: linear backing is the
				// whole point of the registers. (Later balloon/compact
				// relocations are allowed to diverge — the MMU's escape
				// filters cover those — so this is only asserted here.)
				for gpa := seg.Base; gpa < seg.Limit; gpa += addr.PageSize4K {
					hpa, _, ok := vm.NPT.Translate(gpa)
					if !ok {
						continue // ballooned hole: escaped at the MMU layer
					}
					if hpa != seg.Translate(gpa) {
						t.Fatalf("fresh segment says gPA %#x → %#x, NPT says %#x",
							gpa, seg.Translate(gpa), hpa)
					}
				}
			case 5:
				if len(vms) < 3 {
					newVM()
				}
			}
		}

		// Structural invariants across all VMs.
		backing := make(map[uint64]int) // host frame → owner VM index
		for i, vm := range vms {
			leaves := uint64(0)
			var bad string
			vm.NPT.VisitLeaves(func(gpa, hpa uint64, s addr.PageSize) bool {
				leaves++
				f := physmem.AddrToFrame(hpa)
				if !host.Mem.IsAllocated(f) {
					bad = fmt.Sprintf("vm %d: gPA %#x backed by unallocated host frame %d", i, gpa, f)
					return false
				}
				if owner, dup := backing[f]; dup {
					bad = fmt.Sprintf("vm %d: host frame %d double-backed (also vm %d)", i, f, owner)
					return false
				}
				backing[f] = i
				return true
			})
			if bad != "" {
				t.Fatal(bad)
			}
			if got := vm.BackedFrames(); got != leaves {
				t.Fatalf("vm %d: owner bookkeeping says %d backed frames, NPT has %d leaves", i, got, leaves)
			}
		}
	})
}
