// Content-based page sharing (§IX.E): the VMM scans guest memory for
// pages with identical contents, keeps one host copy, and maps the rest
// copy-on-write. Page contents are modeled by a 64-bit content hash per
// guest page; identical hashes mean identical contents.

package vmm

import (
	"fmt"
	"sort"

	"vdirect/internal/addr"
	"vdirect/internal/physmem"
)

// SetPageContent records the content hash of a guest page, the model's
// stand-in for writing data into it.
func (vm *VM) SetPageContent(gpa uint64, hash uint64) {
	vm.content[addr.PageBase(gpa, addr.Page4K)] = hash
}

// PageContent returns a page's content hash (0 = untouched/zero page).
func (vm *VM) PageContent(gpa uint64) uint64 {
	return vm.content[addr.PageBase(gpa, addr.Page4K)]
}

// SharingReport summarizes one scan-and-share pass.
type SharingReport struct {
	ScannedPages uint64
	// SharedPages is the number of guest pages now mapped to a
	// deduplicated host frame.
	SharedPages uint64
	// SavedFrames is the number of host frames reclaimed.
	SavedFrames uint64
	// TotalFrames is the number of frames scanned across all VMs.
	TotalFrames uint64
}

// SavedFraction returns the fraction of scanned memory reclaimed — the
// §IX.E metric (paper: <3% for big-memory workload pairs).
func (r SharingReport) SavedFraction() float64 {
	if r.TotalFrames == 0 {
		return 0
	}
	return float64(r.SavedFrames) / float64(r.TotalFrames)
}

// ScanAndShare performs one content-based sharing pass over the given
// VMs. VM segments preclude sharing inside their covered range (§IX.E:
// "VMM segments preclude page sharing"), so covered pages are skipped.
// Only 4K nested mappings participate.
func (h *Host) ScanAndShare(vms []*VM) (SharingReport, error) {
	// Build the reverse map while every frame still has one owner: once
	// pages are remapped onto a canonical frame, leaves no longer say
	// which VM owns it.
	h.ownerMap()
	var rep SharingReport
	type loc struct {
		vm  *VM
		gpa uint64
	}
	byHash := make(map[uint64][]loc)
	for _, vm := range vms {
		seg := vm.VMMSegment()
		vm.NPT.VisitLeaves(func(gpa, hpa uint64, s addr.PageSize) bool {
			if s != addr.Page4K {
				return true
			}
			rep.TotalFrames++
			if seg.Enabled() && seg.Contains(gpa) {
				return true // segment-covered: not shareable
			}
			rep.ScannedPages++
			hash, ok := vm.content[gpa]
			if !ok {
				return true // content unknown: conservatively unique
			}
			byHash[hash] = append(byHash[hash], loc{vm: vm, gpa: gpa})
			return true
		})
	}
	// Process hashes in sorted order so the sequence of frees and
	// callbacks is deterministic (the end state already is; map order
	// would leak into callback ordering and free-list history).
	hashes := make([]uint64, 0, len(byHash))
	for h := range byHash {
		hashes = append(hashes, h)
	}
	sort.Slice(hashes, func(i, j int) bool { return hashes[i] < hashes[j] })
	for _, hash := range hashes {
		locs := byHash[hash]
		if len(locs) < 2 {
			continue
		}
		// Keep the first copy; remap the rest to it CoW.
		canonical := locs[0]
		canonHPA, _, ok := canonical.vm.NPT.Translate(canonical.gpa)
		if !ok {
			return rep, fmt.Errorf("vmm: sharing scan lost canonical page at gPA %#x", canonical.gpa)
		}
		canonical.vm.sharedFrames[physmem.AddrToFrame(canonHPA)] = true
		for _, l := range locs[1:] {
			oldHPA, _, ok := l.vm.NPT.Translate(l.gpa)
			if !ok {
				return rep, fmt.Errorf("vmm: sharing scan lost page at gPA %#x", l.gpa)
			}
			if oldHPA == canonHPA {
				continue // already shared
			}
			if err := l.vm.NPT.Remap(l.gpa, canonHPA); err != nil {
				return rep, err
			}
			l.vm.unregisterBacking(oldHPA, addr.PageSize4K)
			if err := h.Mem.FreeFrame(physmem.AddrToFrame(oldHPA)); err != nil {
				return rep, err
			}
			l.vm.sharedFrames[physmem.AddrToFrame(canonHPA)] = true
			l.vm.contig = false
			rep.SavedFrames++
			rep.SharedPages++
			if h.cb.Shared != nil {
				h.cb.Shared(l.vm, l.gpa)
			}
		}
	}
	return rep, nil
}

// WriteFault handles a guest store to gpa: if the page is mapped to a
// shared frame, the VMM breaks sharing copy-on-write by giving this VM
// a private copy. Returns true when a CoW break occurred.
func (vm *VM) WriteFault(gpa uint64) (bool, error) {
	gpa = addr.PageBase(gpa, addr.Page4K)
	hpa, s, ok := vm.NPT.Translate(gpa)
	if !ok {
		return false, fmt.Errorf("%w: gPA %#x", ErrNoBacking, gpa)
	}
	if s != addr.Page4K || !vm.sharedFrames[physmem.AddrToFrame(hpa)] {
		return false, nil
	}
	f, err := vm.host.Mem.AllocFrame()
	if err != nil {
		return false, fmt.Errorf("vmm: CoW break: %w", err)
	}
	newHPA := physmem.FrameToAddr(f)
	if err := vm.NPT.Remap(gpa, newHPA); err != nil {
		return false, err
	}
	delete(vm.sharedFrames, physmem.AddrToFrame(hpa))
	vm.registerBacking(gpa, newHPA, addr.PageSize4K)
	vm.cowBreaks++
	if vm.host.cb.CoWBroken != nil {
		vm.host.cb.CoWBroken(vm, gpa)
	}
	return true, nil
}

// CoWBreaks returns how many copy-on-write faults this VM has taken.
func (vm *VM) CoWBreaks() uint64 { return vm.cowBreaks }
