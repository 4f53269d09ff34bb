// Shadow paging (§II.A, §IX.D): the software alternative to nested
// paging. The VMM composes the guest page table (gVA→gPA) with the
// nested mapping (gPA→hPA) into a shadow table (gVA→hPA) that hardware
// walks in 1D. The price is VM exits: every guest page-table update
// must be intercepted to keep the shadow coherent, which is why
// allocation-heavy workloads (memcached) lose up to 29.2% while static
// ones lose little.

package vmm

import (
	"fmt"

	"vdirect/internal/addr"
	"vdirect/internal/pagetable"
)

// DefaultExitCycles approximates one VM exit + shadow-update handler:
// hardware round trip (~1000 cycles on the evaluated generation) plus
// the software walk to recompute the mapping.
const DefaultExitCycles = 4000

// ShadowContext maintains a shadow page table for one guest process.
type ShadowContext struct {
	vm *VM
	// Shadow is the gVA→hPA table hardware walks; it lives in host
	// memory like any VMM data structure.
	Shadow *pagetable.Table
	// ExitCycles is charged per VM exit.
	ExitCycles uint64
	exits      uint64
	exitCycles uint64
}

// NewShadowContext creates an empty shadow table for a process in vm.
func (vm *VM) NewShadowContext() (*ShadowContext, error) {
	sh, err := pagetable.New(vm.host.Mem)
	if err != nil {
		return nil, fmt.Errorf("vmm: shadow table: %w", err)
	}
	return &ShadowContext{vm: vm, Shadow: sh, ExitCycles: DefaultExitCycles}, nil
}

// Exits returns the VM-exit count and total cycles charged.
func (s *ShadowContext) Exits() (count, cycles uint64) { return s.exits, s.exitCycles }

func (s *ShadowContext) exit() {
	s.exits++
	s.exitCycles += s.ExitCycles
}

// SyncPage is the shadow page-fault handler: invoked (via VM exit) when
// hardware faults on a gVA missing from the shadow table. It composes
// guest and nested translations and installs the shadow entry.
func (s *ShadowContext) SyncPage(guestPT *pagetable.Table, gva uint64) error {
	s.exit()
	page := addr.PageBase(gva, addr.Page4K)
	gpa, gsize, ok := guestPT.Translate(page)
	if !ok {
		return fmt.Errorf("vmm: shadow sync: gVA %#x not in guest table", gva)
	}
	hpa, nsize, ok := s.vm.NPT.Translate(gpa)
	if !ok {
		return fmt.Errorf("vmm: shadow sync: gPA %#x not backed", gpa)
	}
	size := gsize
	if nsize < size {
		size = nsize
	}
	base := addr.PageBase(gva, size)
	err := s.Shadow.Map(base, addr.PageBase(hpa, size), size)
	if err == pagetable.ErrOverlap {
		return nil // raced with an earlier sync of a larger page
	}
	return err
}

// InvalidatePage is called (via VM exit) when the guest modifies or
// removes a page-table entry: the stale shadow entry must go.
func (s *ShadowContext) InvalidatePage(gva uint64, size addr.PageSize) error {
	s.exit()
	err := s.Shadow.Unmap(addr.PageBase(gva, size), size)
	if err == pagetable.ErrNotMapped {
		return nil // never faulted in: nothing to do
	}
	return err
}
