// Package guestos models the guest operating system: process address
// spaces with demand paging, the primary-region abstraction that backs
// guest direct segments (§II.B), and the paper's software contributions
// on the guest side — the self-ballooning balloon driver and memory
// hotplug protocol (§IV, §VI.C, Figure 9) and I/O-gap reclamation.
//
// The kernel cooperates with a VMM through the VMMBackend interface;
// package vmm provides the production implementation, and tests use
// lightweight fakes.
package guestos

import (
	"errors"
	"fmt"

	"vdirect/internal/addr"
	"vdirect/internal/mmu"
	"vdirect/internal/pagetable"
	"vdirect/internal/physmem"
	"vdirect/internal/segment"
	"vdirect/internal/trace"
	"vdirect/internal/workload"
)

// Errors surfaced by kernel operations.
var (
	ErrFragmented     = errors.New("guestos: guest physical memory too fragmented for a contiguous region")
	ErrNoPrimary      = errors.New("guestos: process has no primary region")
	ErrOutsideVA      = errors.New("guestos: fault outside any mapped region")
	ErrBackendMissing = errors.New("guestos: operation requires a VMM backend")
	ErrVASpace        = errors.New("guestos: region would end past the 48-bit virtual address space")
)

// VMMBackend is the hypervisor-side of the balloon/hotplug protocol the
// self-ballooning design uses (Figure 9 and §VI.C).
type VMMBackend interface {
	// Balloon hands pinned guest frames to the VMM, which reclaims
	// their host backing (and typically unmaps them from the nested
	// page table).
	Balloon(frames []uint64) error
	// HotplugAdd asks the VMM to back size bytes of new contiguous
	// guest physical address space. The VMM extends the guest physical
	// space (KVM: extends the high memory slot) and returns the new
	// range, which arrives offline; the kernel onlines it.
	HotplugAdd(size uint64) (addr.Range, error)
	// HotplugRemove tells the VMM the guest has unplugged the range so
	// its host backing can be reclaimed.
	HotplugRemove(r addr.Range) error
}

// Process is one guest process: a page table, a virtual address
// allocator, and optionally a primary region mapped by a guest segment.
type Process struct {
	Name string
	PT   *pagetable.Table
	// Seg holds the process's guest direct-segment registers
	// (BASE_G/LIMIT_G/OFFSET_G); disabled when no segment exists.
	Seg segment.Registers

	// primary is the primary region in guest virtual space.
	primary addr.Range
	// regions tracks mmapped ranges for fault validation.
	regions []addr.Range
	// nextVA is the bump allocator for new mappings.
	nextVA uint64

	kernel *Kernel
	// guards are armed guard pages (§V extension).
	guards []uint64
	// EmulateSegment, when set, reproduces the paper's prototype
	// strategy (§VI.B): the fault handler installs dynamically computed
	// PTEs for segment-covered addresses instead of relying on segment
	// hardware. Used to cross-validate hardware vs emulation.
	EmulateSegment bool
}

// Kernel is the guest OS: it owns guest physical memory and processes.
type Kernel struct {
	Mem     *physmem.Memory
	backend VMMBackend

	procs []*Process
	// ballooned tracks frames pinned by the balloon driver.
	ballooned []uint64
	// kernelReserve is the low memory kept below the I/O gap after
	// reclamation (the 256MB Linux needs to boot, §VI.C).
	kernelReserve addr.Range
}

// NewKernel boots a guest kernel over the given physical memory.
// backend may be nil for native (unvirtualized) kernels.
func NewKernel(mem *physmem.Memory, backend VMMBackend) *Kernel {
	return &Kernel{Mem: mem, backend: backend}
}

// SetBackend rebinds the kernel's VMM backend. Live migration hands a
// guest to a new VM object; the kernel keeps running over the same
// guest physical memory but must talk to the new hypervisor side.
func (k *Kernel) SetBackend(b VMMBackend) { k.backend = b }

// CreateProcess allocates a fresh address space.
func (k *Kernel) CreateProcess(name string) (*Process, error) {
	pt, err := pagetable.New(k.Mem)
	if err != nil {
		return nil, fmt.Errorf("guestos: creating %s: %w", name, err)
	}
	p := &Process{
		Name:   name,
		PT:     pt,
		nextVA: 0x4000_0000, // leave low VA for text/stack conventions
		kernel: k,
	}
	k.procs = append(k.procs, p)
	return p, nil
}

// Processes returns all live processes.
func (k *Kernel) Processes() []*Process { return k.procs }

// MMap reserves size bytes of virtual address space (rounded up to 4K)
// and returns its base. Pages are faulted in on demand. A region that
// would end past addr.VirtualSpan is refused with ErrVASpace, and the
// next MMap returns the base this one would have.
func (p *Process) MMap(size uint64) (uint64, error) {
	r, err := p.reserve(size, addr.PageSize2M)
	return r.Start, err
}

// reserve registers the next size bytes (rounded up to 4K) of virtual
// address space at the given alignment and moves the bump allocator
// past them and a 2M guard gap. A region that would end past
// addr.VirtualSpan is refused with ErrVASpace before anything moves.
func (p *Process) reserve(size, align uint64) (addr.Range, error) {
	base := addr.AlignUp(p.nextVA, align)
	// The room left is a multiple of 4K, so the size fits exactly when
	// it does rounded up; checking it unrounded also refuses a size
	// within 4K of 2^64, which AlignUp wraps to 0.
	if base > addr.VirtualSpan || size > addr.VirtualSpan-base {
		return addr.Range{}, fmt.Errorf("%w: %#x bytes at %#x", ErrVASpace, size, base)
	}
	r := addr.Range{Start: base, Size: addr.AlignUp(size, addr.PageSize4K)}
	p.nextVA = r.End() + addr.PageSize2M // guard gap
	p.regions = append(p.regions, r)
	return r, nil
}

// MMapAt registers a virtual region at a caller-chosen base (MAP_FIXED),
// used by LayOut to place workload data structures at the addresses
// their traces reference.
func (p *Process) MMapAt(r addr.Range) error {
	r.Size = addr.AlignUp(r.Size, addr.PageSize4K)
	for _, old := range p.regions {
		if old.Overlaps(r) {
			return fmt.Errorf("guestos: region %v overlaps existing %v", r, old)
		}
	}
	p.regions = append(p.regions, r)
	if end := r.End() + addr.PageSize2M; end > p.nextVA {
		p.nextVA = end
	}
	return nil
}

// Unmap removes the translation for every mapped page of the range and
// frees the backing frames. The caller is responsible for TLB
// invalidation on the MMU. The virtual region itself stays registered
// (malloc arenas recycle address space).
func (p *Process) Unmap(r addr.Range) error {
	for va := addr.PageBase(r.Start, addr.Page4K); va < r.End(); va += addr.PageSize4K {
		gpa, s, ok := p.PT.Translate(va)
		if !ok {
			continue
		}
		if s != addr.Page4K {
			return fmt.Errorf("guestos: unmap of %v-mapped page %#x unsupported", s, va)
		}
		if err := p.PT.Unmap(va, addr.Page4K); err != nil {
			return err
		}
		if err := p.kernel.Mem.FreeFrame(physmem.AddrToFrame(gpa)); err != nil {
			return err
		}
	}
	return nil
}

// Free services a Free event over r: Unmap, then each 4K page of r is
// invalidated in m's TLBs, after trap (when non-nil) has run on it — a
// shadow-paging VMM traps each guest PTE clear to drop its shadow entry.
func (p *Process) Free(m *mmu.MMU, r addr.Range, trap func(va uint64) error) error {
	if err := p.Unmap(r); err != nil {
		return err
	}
	for va := r.Start; va < r.End(); va += addr.PageSize4K {
		if trap != nil {
			if err := trap(va); err != nil {
				return err
			}
		}
		m.InvalidatePage(va, addr.Page4K)
	}
	return nil
}

// LayOut lays w's static regions into the process at the addresses its
// trace references (§VI.B): the primary region backed by a guest
// segment when guestSeg is set, otherwise mapped eagerly with pages of
// size ps; every other static region reserved for demand paging; and
// the stack's first 32 KB pre-touched, hot from process start. It
// programs no MMU register: a caller whose scheme uses the guest
// segment loads p.Seg itself.
func (p *Process) LayOut(w workload.Workload, guestSeg bool, ps addr.PageSize) error {
	prim := w.PrimaryRegion()
	if guestSeg {
		if err := p.CreatePrimaryRegionAt(prim); err != nil {
			return err
		}
	} else {
		if err := p.MMapAt(prim); err != nil {
			return err
		}
		if err := p.MapRegion(prim, ps); err != nil {
			return err
		}
	}
	for _, r := range w.StaticRegions() {
		if r == prim {
			continue
		}
		if err := p.MMapAt(r); err != nil {
			return err
		}
	}
	return p.Prefault(addr.Range{Start: workload.StackBase, Size: 32 << 10})
}

// MapRegion eagerly maps the whole region with pages of size s, backing
// it with size-aligned contiguous guest physical chunks. This is how
// big-memory applications "explicitly request 4KB, 2MB, or 1GB pages"
// (§VIII) and how THP-promoted regions end up laid out.
func (p *Process) MapRegion(r addr.Range, s addr.PageSize) error {
	if !addr.IsAligned(r.Start, s) {
		return fmt.Errorf("guestos: region base %#x not %v aligned", r.Start, s)
	}
	if s == addr.Page4K {
		return p.mapRegion4K(r)
	}
	chunkFrames := s.Bytes() >> addr.PageShift4K
	for va := r.Start; va < r.End(); va += s.Bytes() {
		if _, _, ok := p.PT.Translate(va); ok {
			continue
		}
		first, err := p.kernel.Mem.AllocContiguous(chunkFrames, chunkFrames)
		if err != nil {
			return fmt.Errorf("guestos: backing %v page at %#x: %w", s, va, err)
		}
		if err := p.PT.Map(va, physmem.FrameToAddr(first), s); err != nil {
			return err
		}
	}
	return nil
}

// mapRegion4K backs the region's unmapped 4K pages through
// pagetable.(*Table).Back4K, one span of unmapped pages at a time, so
// data frames and table pages land where a per-page loop would put
// them; already-mapped pages are skipped.
func (p *Process) mapRegion4K(r addr.Range) error {
	for va, end := r.Start, r.End(); va < end; {
		// The unmapped span from va, up to the next mapped page.
		span := uint64(0)
		for ; va+span<<addr.PageShift4K < end; span++ {
			if _, _, ok := p.PT.Translate(va + span<<addr.PageShift4K); ok {
				break
			}
		}
		if mapped, err := p.PT.Back4K(va, span, p.kernel.Mem, nil); err != nil {
			return fmt.Errorf("guestos: backing %v page at %#x: %w", addr.Page4K, va+mapped<<addr.PageShift4K, err)
		}
		va += (span + 1) << addr.PageShift4K // past the span and the mapped page ending it
	}
	return nil
}

// Regions returns the process's mapped virtual ranges.
func (p *Process) Regions() []addr.Range { return p.regions }

// PrimaryRegion returns the process's primary region (zero if none).
func (p *Process) PrimaryRegion() addr.Range { return p.primary }

// CreatePrimaryRegion reserves a contiguous virtual region of size
// bytes and attempts to back it with a contiguous guest physical range
// so a guest direct segment can map it. On fragmentation it returns
// ErrFragmented with the virtual region still created (paging works);
// the caller may self-balloon and retry BackPrimaryRegion. A region
// that would end past addr.VirtualSpan is refused with ErrVASpace, as
// MMap refuses it, and creates nothing.
func (p *Process) CreatePrimaryRegion(size uint64) (addr.Range, error) {
	r, err := p.reserve(size, addr.PageSize1G)
	if err != nil {
		return addr.Range{}, err
	}
	p.primary = r
	return r, p.BackPrimaryRegion()
}

// CreatePrimaryRegionAt registers a primary region at a fixed virtual
// base (LayOut pins workload layouts) and attempts to
// back it, with the same ErrFragmented contract as CreatePrimaryRegion.
func (p *Process) CreatePrimaryRegionAt(r addr.Range) error {
	if err := p.MMapAt(r); err != nil {
		return err
	}
	p.primary = r
	return p.BackPrimaryRegion()
}

// BackPrimaryRegion (re)tries to allocate contiguous guest physical
// memory behind the primary region and program segment registers.
func (p *Process) BackPrimaryRegion() error {
	if p.primary.Empty() {
		return ErrNoPrimary
	}
	frames := p.primary.Size >> addr.PageShift4K
	first, err := p.kernel.Mem.AllocContiguous(frames, 1)
	if err != nil {
		return ErrFragmented
	}
	gpaBase := physmem.FrameToAddr(first)
	p.Seg = segment.NewRegisters(p.primary.Start, gpaBase, p.primary.Size)
	return nil
}

// HandleFault services a page fault at gva for the process, exactly as
// the modified Linux handler of §VI.B: faults inside a segment-mapped
// primary region get dynamically computed PTEs (emulation mode) or are
// a hard error (hardware mode — segment hardware should have translated
// them); other faults demand-allocate a frame.
func (p *Process) HandleFault(gva uint64) error {
	page := addr.PageBase(gva, addr.Page4K)
	if p.Seg.Enabled() && p.Seg.Contains(gva) {
		if !p.EmulateSegment {
			return fmt.Errorf("guestos: fault at %#x inside live guest segment %v", gva, p.Seg)
		}
		// §VI.B: compute the physical address from the segment offset
		// and install the PTE.
		gpa := addr.PageBase(p.Seg.Translate(gva), addr.Page4K)
		if err := p.kernel.Mem.AllocFrameAt(physmem.AddrToFrame(gpa)); err != nil &&
			!errors.Is(err, physmem.ErrDoubleAlloc) {
			return fmt.Errorf("guestos: emulated segment fault: %w", err)
		}
		return p.PT.Map(page, gpa, addr.Page4K)
	}
	if !p.inRegion(gva) {
		return ErrOutsideVA
	}
	f, err := p.kernel.Mem.AllocFrame()
	if err != nil {
		return fmt.Errorf("guestos: demand paging: %w", err)
	}
	return p.PT.Map(page, physmem.FrameToAddr(f), addr.Page4K)
}

// TranslateBlock runs evs through m with the process switched in,
// servicing guest page faults the way the guest kernel would: one
// m.TranslateBlock call per fault-free run, and per faulting event
// HandleFault then a retry, giving up after 3 attempts (each attempt
// re-counts the access in m's Stats). The simulator's access hooks
// share it rather than each writing the loop. out, when non-nil, needs
// len(evs) entries and receives each translated event's Result.
//
// It returns how many events completed. A nested fault is not
// serviceable here and comes back wrapped (errors.As finds the
// *mmu.Fault); HandleFault's errors are wrapped too. Errors carry no
// package prefix: callers add their own.
func (p *Process) TranslateBlock(m *mmu.MMU, evs []trace.Event, out []mmu.Result) (int, error) {
	done, attempt := 0, 0
	for {
		var rest []mmu.Result
		if out != nil {
			rest = out[done:]
		}
		n, fault := m.TranslateBlock(evs[done:], rest)
		done += n
		if fault == nil {
			return done, nil
		}
		if n > 0 {
			attempt = 0 // a new event is faulting
		}
		attempt++
		if fault.Kind != mmu.FaultGuest {
			return done, fmt.Errorf("unexpected nested fault: %w", fault)
		}
		if err := p.HandleFault(fault.Addr); err != nil {
			return done, fmt.Errorf("fault at %#x: %w", fault.Addr, err)
		}
		if attempt >= 3 {
			return done, fmt.Errorf("access at %#x still faulting after service", uint64(evs[done].VA))
		}
	}
}

func (p *Process) inRegion(gva uint64) bool {
	for _, r := range p.regions {
		if r.Contains(gva) {
			return true
		}
	}
	return false
}

// Prefault populates every page of the virtual range eagerly, as
// big-memory applications do with explicit huge-page requests or
// pre-touch loops. It drives HandleFault so both policies share code.
func (p *Process) Prefault(r addr.Range) error {
	for va := r.Start; va < r.End(); va += addr.PageSize4K {
		if _, _, ok := p.PT.Translate(va); ok {
			continue
		}
		if p.Seg.Enabled() && p.Seg.Contains(va) && !p.EmulateSegment {
			continue // segment hardware translates; nothing to install
		}
		if err := p.HandleFault(va); err != nil {
			return err
		}
	}
	return nil
}

// SelfBalloon implements the paper's self-ballooning (Figure 9): pin
// scattered free frames with the balloon driver, hand them to the VMM,
// and receive the same amount of fresh contiguous guest physical
// memory via hotplug. Returns the new contiguous range, onlined and
// ready to back a guest segment. It composes the two primitives a host
// policy engine also drives independently: BalloonOut and HotplugGrow.
func (k *Kernel) SelfBalloon(size uint64, pick func(n uint64) uint64) (addr.Range, error) {
	if _, err := k.BalloonOut(size, pick); err != nil {
		return addr.Range{}, err
	}
	return k.HotplugGrow(size)
}

// BalloonOut pins size bytes of free guest frames with the balloon
// driver and hands them to the VMM, which reclaims their host backing —
// the guest's side of a host-initiated balloon inflation (the
// "tug-of-war" primitive: the host squeezes this guest without giving
// anything back). The pinned frames stay allocated in guest physical
// memory so the guest never touches them. Returns the pinned frames.
func (k *Kernel) BalloonOut(size uint64, pick func(n uint64) uint64) ([]uint64, error) {
	if k.backend == nil {
		return nil, ErrBackendMissing
	}
	size = addr.AlignUp(size, addr.PageSize4K)
	need := size >> addr.PageShift4K
	if k.Mem.FreeFrames() < need {
		return nil, fmt.Errorf("guestos: balloon needs %d free frames, have %d",
			need, k.Mem.FreeFrames())
	}
	// The balloon driver asks the kernel for reclaimable pages and pins
	// them. The kernel hands back whatever scattered frames it has —
	// that is the point: they need not be contiguous.
	frames := make([]uint64, 0, need)
	for uint64(len(frames)) < need {
		f, err := k.Mem.AllocFrame()
		if err != nil {
			return nil, fmt.Errorf("guestos: balloon pinning: %w", err)
		}
		frames = append(frames, f)
	}
	_ = pick // reserved for randomized pinning policies
	if err := k.backend.Balloon(frames); err != nil {
		return nil, fmt.Errorf("guestos: balloon to VMM: %w", err)
	}
	k.ballooned = append(k.ballooned, frames...)
	return frames, nil
}

// HotplugGrow asks the VMM for size bytes of fresh contiguous guest
// physical memory via hotplug and onlines it — the guest's side of a
// host-initiated deflation/grant.
func (k *Kernel) HotplugGrow(size uint64) (addr.Range, error) {
	if k.backend == nil {
		return addr.Range{}, ErrBackendMissing
	}
	size = addr.AlignUp(size, addr.PageSize4K)
	r, err := k.backend.HotplugAdd(size)
	if err != nil {
		return addr.Range{}, fmt.Errorf("guestos: hotplug add: %w", err)
	}
	if err := k.Mem.Online(r); err != nil {
		return addr.Range{}, fmt.Errorf("guestos: onlining hotplugged range: %w", err)
	}
	return r, nil
}

// BalloonedFrames returns frames currently pinned by the balloon.
func (k *Kernel) BalloonedFrames() []uint64 { return k.ballooned }

// ReclaimIOGap implements §IV "Reclaiming I/O gap memory" using
// hot-unplug: remove all guest physical memory between keepBytes and
// the I/O gap, then extend memory above by the same amount. Linux
// needs only ~256MB low memory to boot (§VI.C), so keepBytes is
// typically 256<<20. Returns the new high range.
func (k *Kernel) ReclaimIOGap(keepBytes uint64) (addr.Range, error) {
	if k.backend == nil {
		return addr.Range{}, ErrBackendMissing
	}
	keepBytes = addr.AlignUp(keepBytes, addr.PageSize4K)
	if keepBytes >= addr.IOGapStart {
		return addr.Range{}, fmt.Errorf("guestos: keepBytes %#x leaves nothing to reclaim", keepBytes)
	}
	low := addr.Range{Start: keepBytes, Size: addr.IOGapStart - keepBytes}
	// Hot-unplug uses specific addresses (unlike ballooning, which takes
	// whatever the kernel picks) — that is why the paper uses it here.
	if err := k.Mem.Offline(low); err != nil {
		return addr.Range{}, fmt.Errorf("guestos: unplugging low memory: %w", err)
	}
	if err := k.backend.HotplugRemove(low); err != nil {
		return addr.Range{}, err
	}
	r, err := k.backend.HotplugAdd(low.Size)
	if err != nil {
		return addr.Range{}, err
	}
	if err := k.Mem.Online(r); err != nil {
		return addr.Range{}, err
	}
	k.kernelReserve = addr.Range{Start: 0, Size: keepBytes}
	return r, nil
}

// KernelReserve returns the low-memory range kept for the kernel after
// I/O-gap reclamation (zero before).
func (k *Kernel) KernelReserve() addr.Range { return k.kernelReserve }

// MarkBadPages places frames on the bad-page list and, when the process
// has a live segment covering them, registers them with the provided
// escape-filter insert function and remaps them through paging. It
// returns the remapped (gva → new gPA) pairs.
type BadPageRemap struct {
	GVA    uint64
	OldGPA uint64
	NewGPA uint64
}

// EscapeBadPages handles hard faults inside p's guest segment: each bad
// guest frame is marked, inserted into the escape filter via insert,
// and remapped through conventional paging to a healthy frame (§V).
func (p *Process) EscapeBadPages(badGPAs []uint64, insert func(pfn uint64)) ([]BadPageRemap, error) {
	if !p.Seg.Enabled() {
		return nil, ErrNoPrimary
	}
	var out []BadPageRemap
	for _, gpa := range badGPAs {
		gpa = addr.PageBase(gpa, addr.Page4K)
		if err := p.kernel.Mem.MarkBad(physmem.AddrToFrame(gpa)); err != nil {
			return out, err
		}
		if !p.Seg.TargetRange().Contains(gpa) {
			continue // outside the segment: ordinary bad-page handling
		}
		gva := gpa - p.Seg.Offset
		insert(gpa >> addr.PageShift4K)
		f, err := p.kernel.Mem.AllocFrame()
		if err != nil {
			return out, fmt.Errorf("guestos: replacement frame: %w", err)
		}
		newGPA := physmem.FrameToAddr(f)
		if err := p.PT.Map(addr.PageBase(gva, addr.Page4K), newGPA, addr.Page4K); err != nil {
			return out, fmt.Errorf("guestos: remapping escaped page: %w", err)
		}
		out = append(out, BadPageRemap{GVA: gva, OldGPA: gpa, NewGPA: newGPA})
	}
	return out, nil
}

// GuardPages implements the §V extension: the escape filter can carry
// "a limited number of pages with different protection, such as guard
// pages". Each gva page inside the segment is inserted into the filter
// via insert but deliberately NOT remapped, so hardware falls back to
// paging, finds no PTE, and faults — the guard trips. insert receives
// both the virtual and the translated page frame number because the
// guest-side filter (Direct Segment mode) is keyed by VA while the
// VMM-side filter (Dual/VMM Direct) is keyed by gPA.
func (p *Process) GuardPages(gvas []uint64, insert func(vaPFN, paPFN uint64)) error {
	if !p.Seg.Enabled() {
		return ErrNoPrimary
	}
	for _, gva := range gvas {
		if !p.Seg.Contains(gva) {
			return fmt.Errorf("guestos: guard page %#x outside the segment", gva)
		}
		pa := addr.PageBase(p.Seg.Translate(gva), addr.Page4K)
		insert(addr.PageBase(gva, addr.Page4K)>>addr.PageShift4K, pa>>addr.PageShift4K)
		p.guards = append(p.guards, addr.PageBase(gva, addr.Page4K))
	}
	return nil
}

// GuardPageHit reports whether a faulting address is a guard page the
// process armed, so the kernel can deliver the protection violation
// rather than demand-paging it.
func (p *Process) GuardPageHit(gva uint64) bool {
	page := addr.PageBase(gva, addr.Page4K)
	for _, g := range p.guards {
		if g == page {
			return true
		}
	}
	return false
}
