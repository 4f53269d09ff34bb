// Package vdirect is a simulation library reproducing "Efficient Memory
// Virtualization: Reducing Dimensionality of Nested Page Walks" (Gandhi,
// Basu, Hill, Swift — MICRO 2014).
//
// It models the paper's proposed hardware — two levels of direct-segment
// registers wired into an x86-64 TLB/page-walk pipeline, plus a 256-bit
// escape filter — together with the software stack the proposal needs: a
// guest OS with primary regions, self-ballooning and memory hotplug, and
// a KVM-style VMM with nested page tables, host compaction, page sharing
// and shadow paging.
//
// The package offers two levels of use:
//
//   - System: build one virtual machine in any of the six translation
//     modes and drive memory accesses through the simulated MMU, with
//     cycle and event accounting.
//   - Experiments: regenerate every figure and table of the paper's
//     evaluation (see Figure1, Figure11, RunCell, ...).
//
// All simulation is deterministic: identical inputs give identical
// event counts.
package vdirect

import (
	"errors"
	"fmt"

	"vdirect/internal/addr"
	"vdirect/internal/experiments"
	"vdirect/internal/guestos"
	"vdirect/internal/mmu"
	"vdirect/internal/segment"
	"vdirect/internal/trace"
	"vdirect/internal/vmm"
)

// Mode selects one of the paper's translation modes (Figure 3).
type Mode = mmu.Mode

// The six paper translation modes, plus post-paper schemes. Any name
// in SchemeNames is a valid Config.Mode.
const (
	// Native is unvirtualized 1D paging (up to 4 references per walk).
	Native = mmu.ModeNative
	// DirectSegment is the unvirtualized direct-segment mode (§III.D).
	DirectSegment = mmu.ModeDirectSegment
	// BaseVirtualized is the hardware-assisted 2D nested walk (≤24
	// references).
	BaseVirtualized = mmu.ModeBaseVirtualized
	// DualDirect uses segments in both dimensions: a 0D walk (§III.A).
	DualDirect = mmu.ModeDualDirect
	// VMMDirect flattens the nested dimension with a VMM segment: a 1D
	// walk with no guest changes (§III.B).
	VMMDirect = mmu.ModeVMMDirect
	// GuestDirect flattens the guest dimension with a guest segment,
	// keeping nested paging for VMM services (§III.C).
	GuestDirect = mmu.ModeGuestDirect
	// FlatNested is the post-paper flattened-nested-page-table scheme:
	// interior guest levels resolve through VMM-maintained flat host
	// tables, collapsing the 24-reference 2D walk to 12 with no segment
	// registers at all.
	FlatNested = mmu.ModeFlatNested
)

// SchemeNames returns every registered translation scheme's name,
// sorted — the valid values for Config.Mode.
func SchemeNames() []string { return mmu.SchemeNames() }

// PageSize selects an x86-64 page size.
type PageSize = addr.PageSize

// Supported page sizes.
const (
	Page4K = addr.Page4K
	Page2M = addr.Page2M
	Page1G = addr.Page1G
)

// Stats exposes the MMU event counters (the simulator's perf counters).
type Stats = mmu.Stats

// HardwareConfig exposes the simulated TLB/walker parameters.
type HardwareConfig = mmu.Config

// Config describes a System.
type Config struct {
	// Mode is the translation mode to operate in.
	Mode Mode
	// GuestMemory is the guest physical memory size in bytes (or the
	// machine size for native modes). Default 256 MiB.
	GuestMemory uint64
	// NestedPage is the page size the VMM backs guest memory with.
	// Default 4K.
	NestedPage PageSize
	// Hardware overrides TLB geometry and latencies (zero = the
	// paper's Table VI machine).
	Hardware HardwareConfig
	// HostMemory is the host physical size for virtualized modes.
	// Default: guest memory + 50% + 256 MiB.
	HostMemory uint64
}

// System is one simulated machine: hardware MMU plus the guest OS (and,
// when virtualized, the VMM and host) needed to run it.
type System struct {
	m *experiments.Machine
}

// ErrNoSegment is returned when a segment operation is invoked in a
// mode that does not use that segment.
var ErrNoSegment = errors.New("vdirect: mode does not use this segment")

// ErrAddressRange is returned by Access for a virtual address at or
// above addr.VirtualSpan (2^48), which no page table can map, by
// MapAt, MapEager and Free for a range not inside [0, 2^48), and by Map
// for a size whose region would end past 2^48.
var ErrAddressRange = errors.New("vdirect: address outside the 48-bit virtual address space")

// checkSpan rejects a range not inside [0, addr.VirtualSpan), one whose
// end wraps included: the page walk indexes only bits 47:0, so a page
// above 2^48 would alias the canonical page below it.
func checkSpan(base, size uint64) error {
	if base >= addr.VirtualSpan || size > addr.VirtualSpan-base {
		return fmt.Errorf("%w: %#x bytes at %#x", ErrAddressRange, size, base)
	}
	return nil
}

// NewSystem builds a machine in the configured mode with one process,
// through the same assembly as the experiment runner: the stack comes
// from the scheme's own Requirements — which register sets to program,
// whether backing must be contiguous, whether the VMM maintains
// flattened nested tables — so any registered scheme builds here by
// name.
func NewSystem(cfg Config) (*System, error) {
	if cfg.GuestMemory == 0 {
		cfg.GuestMemory = 256 << 20
	}
	if cfg.GuestMemory%addr.PageSize4K != 0 {
		return nil, fmt.Errorf("vdirect: guest memory %#x not 4K aligned", cfg.GuestMemory)
	}
	hostSize := cfg.HostMemory
	if hostSize == 0 {
		hostSize = cfg.GuestMemory + cfg.GuestMemory/2 + 256<<20
	}
	m, err := experiments.NewMachine(cfg.Mode, "main", cfg.GuestMemory, hostSize, cfg.NestedPage, cfg.Hardware)
	if err != nil {
		return nil, err
	}
	// Guest-segment modes get a segment when a primary region is
	// created (CreatePrimaryRegion); nothing to do yet.
	if got := m.MMU.Mode(); !modeCompatible(got, cfg.Mode) {
		return nil, fmt.Errorf("vdirect: built mode %v for requested %v", got, cfg.Mode)
	}
	return &System{m: m}, nil
}

// modeCompatible allows guest-segment modes to report their segment-less
// configuration until a primary region exists.
func modeCompatible(got, want Mode) bool {
	if got == want {
		return true
	}
	switch want {
	case DirectSegment:
		return got == Native
	case GuestDirect:
		return got == BaseVirtualized
	case DualDirect:
		return got == VMMDirect
	}
	return false
}

// Mode returns the mode the hardware currently operates in (derived
// from register state, as in the proposal).
func (s *System) Mode() Mode { return s.m.MMU.Mode() }

// Stats returns the accumulated MMU counters.
func (s *System) Stats() Stats { return s.m.MMU.Stats() }

// ResetStats zeroes the counters (typically after warmup).
func (s *System) ResetStats() { s.m.MMU.ResetStats() }

// Map reserves size bytes of virtual address space, demand-paged at 4K.
// A size whose region would end past 2^48 is refused with
// ErrAddressRange and leaves the next Map's base unchanged.
func (s *System) Map(size uint64) (uint64, error) {
	base, err := s.m.Proc.MMap(size)
	if err != nil {
		return 0, addressRange(err)
	}
	return base, nil
}

// addressRange reports guestos.ErrVASpace, a region that would end past
// 2^48, as ErrAddressRange.
func addressRange(err error) error {
	if errors.Is(err, guestos.ErrVASpace) {
		return fmt.Errorf("%w: %w", ErrAddressRange, err)
	}
	return err
}

// MapAt reserves [base, base+size) of virtual address space.
func (s *System) MapAt(base, size uint64) error {
	if err := checkSpan(base, size); err != nil {
		return err
	}
	return s.m.Proc.MMapAt(addr.Range{Start: base, Size: size})
}

// MapEager maps the region with pages of the given size immediately,
// as big-memory applications requesting explicit page sizes do.
func (s *System) MapEager(base, size uint64, ps PageSize) error {
	if err := checkSpan(base, size); err != nil {
		return err
	}
	if err := s.m.Proc.MMapAt(addr.Range{Start: base, Size: size}); err != nil {
		return err
	}
	return s.m.Proc.MapRegion(addr.Range{Start: base, Size: size}, ps)
}

// CreatePrimaryRegion reserves a primary region of the given size and
// backs it with a guest direct segment (DirectSegment, GuestDirect and
// DualDirect modes). It returns the region's base address. A size
// whose region would end past 2^48 is refused with ErrAddressRange and
// leaves the next Map's base unchanged.
func (s *System) CreatePrimaryRegion(size uint64) (uint64, error) {
	if !s.m.Req.GuestSegment {
		return 0, ErrNoSegment
	}
	r, err := s.m.Proc.CreatePrimaryRegion(size)
	if err != nil {
		return 0, addressRange(err)
	}
	s.m.MMU.SetGuestSegment(s.m.Proc.Seg)
	return r.Start, nil
}

// Access translates one data reference, servicing demand-paging faults
// the way the guest kernel would. It returns the host physical address
// and the translation cycles charged. An address at or above 2^48 is
// rejected with ErrAddressRange before it is translated: the page walk
// indexes only bits 47:0, so such an address would otherwise alias the
// canonical page below it, or overflow the TLB tag word.
func (s *System) Access(va uint64) (hpa uint64, cycles uint64, err error) {
	if va >= addr.VirtualSpan {
		return 0, 0, fmt.Errorf("%w: %#x", ErrAddressRange, va)
	}
	evs := [1]trace.Event{{Kind: trace.Access, VA: addr.GVA(va)}}
	var out [1]mmu.Result
	if _, err := s.m.Proc.TranslateBlock(s.m.MMU, evs[:], out[:]); err != nil {
		return 0, 0, fmt.Errorf("vdirect: %w", err)
	}
	return out[0].HPA, out[0].Cycles, nil
}

// Free unmaps the 4K pages of the range and invalidates the TLBs.
func (s *System) Free(base, size uint64) error {
	if err := checkSpan(base, size); err != nil {
		return err
	}
	return s.m.Proc.Free(s.m.MMU, addr.Range{Start: base, Size: size}, nil)
}

// EscapeBadPages marks guest-segment-covered physical pages as faulty,
// inserts them into the escape filter, and remaps them through paging
// (§V). Only meaningful once a primary region exists.
func (s *System) EscapeBadPages(gpas []uint64) error {
	filter := s.m.MMU.GuestEscapeFilter()
	if s.m.Req.VMMSegment {
		filter = s.m.MMU.VMMEscapeFilter()
	}
	_, err := s.m.Proc.EscapeBadPages(gpas, func(pfn uint64) { filter.Insert(pfn) })
	return err
}

// GuestSegment returns the current guest segment registers' coverage
// (zero range when disabled).
func (s *System) GuestSegment() (base, limit, offset uint64, enabled bool) {
	r := s.m.MMU.GuestSegment()
	return r.Base, r.Limit, r.Offset, r.Enabled()
}

// VMMSegment returns the current VMM segment registers' coverage.
func (s *System) VMMSegment() (base, limit, offset uint64, enabled bool) {
	r := s.m.MMU.VMMSegment()
	return r.Base, r.Limit, r.Offset, r.Enabled()
}

// SelfBalloon runs the paper's self-ballooning protocol (§IV): balloon
// out scattered free guest frames and hotplug the same amount back as
// one contiguous guest physical range. Virtualized modes only.
func (s *System) SelfBalloon(size uint64) (base uint64, err error) {
	r, err := s.m.Kernel.SelfBalloon(size, nil)
	if err != nil {
		return 0, err
	}
	return r.Start, nil
}

// RetryPrimaryRegion re-attempts backing the primary region with a
// contiguous range (after SelfBalloon or compaction).
func (s *System) RetryPrimaryRegion() error {
	if err := s.m.Proc.BackPrimaryRegion(); err != nil {
		return err
	}
	s.m.MMU.SetGuestSegment(s.m.Proc.Seg)
	return nil
}

// FragmentGuestMemory scatters allocations over frac of free guest
// frames (fragmentation injection for demos and tests). Returns the
// number of frames taken.
func (s *System) FragmentGuestMemory(frac float64, seed uint64) int {
	return len(s.m.Kernel.Mem.FragmentRandomly(frac, trace.NewRand(seed).Uint64n))
}

// Kernel, VM and Host expose the underlying models for advanced use —
// the examples use them to demonstrate ballooning, compaction, sharing
// and shadow paging directly.
func (s *System) Kernel() *guestos.Kernel { return s.m.Kernel }

// Process returns the system's (single) process.
func (s *System) Process() *guestos.Process { return s.m.Proc }

// VM returns the virtual machine (nil for native modes).
func (s *System) VM() *vmm.VM { return s.m.VM }

// Host returns the host machine (nil for native modes).
func (s *System) Host() *vmm.Host { return s.m.Host }

// MMU returns the simulated translation hardware.
func (s *System) MMU() *mmu.MMU { return s.m.MMU }

// Disabled segment helper re-exported for callers programming registers
// directly through MMU().
var DisabledSegment = segment.Disabled
