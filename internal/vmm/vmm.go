// Package vmm models the hypervisor: virtual machines with KVM-style
// memory slots (Figure 10), nested page tables, VMM direct-segment
// creation with boot-time contiguous reservation (§VI.A), host memory
// compaction (§IV), the VMM side of the self-ballooning protocol
// (§VI.C), content-based page sharing (§IX.E), shadow paging (§IX.D),
// and the Table II/III mode capability and transition policies.
package vmm

import (
	"errors"
	"fmt"

	"vdirect/internal/addr"
	"vdirect/internal/pagetable"
	"vdirect/internal/physmem"
	"vdirect/internal/segment"
)

// Errors surfaced by VMM operations.
var (
	ErrHostFragmented = errors.New("vmm: host physical memory too fragmented for a VMM segment")
	ErrNoBacking      = errors.New("vmm: guest physical range not backed")
	ErrBadNestedSize  = errors.New("vmm: operation requires 4K nested pages")
)

// Host owns the machine's physical memory and its VMs.
type Host struct {
	Mem *physmem.Memory
	vms []*VM
	// owners maps each host frame to the (vm, gpa) backing it, so host
	// compaction can repair nested mappings. Indexed by frame number and
	// packed pointer-free (ownerWord) so the array — one word per host
	// frame, easily megabytes on a dense host — costs the garbage
	// collector nothing to scan. Zero means unowned (free, page-table
	// page, or VMM-internal). It is nil until ownerMap first builds it:
	// most hosts never read it.
	owners []uint64
	// ownerVMs resolves the VM index stored in an owner word. Slots are
	// stable for a VM's lifetime on this host and recycled through
	// freeIDs after destroy/migrate, so owner words never dangle.
	ownerVMs []*VM
	freeIDs  []int
	cb       Callbacks
}

// Callbacks notifies an embedding host layer (internal/host) of VMM
// memory operations that change which host frames back which guest
// pages, so it can keep MMU caches, escape filters, and per-guest
// accounting coherent. All fields are optional; callbacks run
// synchronously on the operation's goroutine, after the VMM's own
// bookkeeping for the page is complete.
type Callbacks struct {
	// Ballooned fires for each guest physical page whose host backing
	// was released by Balloon.
	Ballooned func(vm *VM, gpa uint64)
	// Hotplugged fires after HotplugAdd successfully backs a new guest
	// physical range.
	Hotplugged func(vm *VM, r addr.Range)
	// Unplugged fires for each guest physical page whose backing
	// HotplugRemove released.
	Unplugged func(vm *VM, gpa uint64)
	// Shared fires for each guest page remapped onto a deduplicated
	// frame by ScanAndShare (the duplicate whose private frame was
	// freed, not the canonical copy).
	Shared func(vm *VM, gpa uint64)
	// CoWBroken fires when WriteFault gives a VM a private copy.
	CoWBroken func(vm *VM, gpa uint64)
	// Migrated fires once a live migration completes, with the
	// registered destination VM.
	Migrated func(vm *VM, rep MigrationReport)
}

// SetCallbacks installs the host-layer callback seam.
func (h *Host) SetCallbacks(cb Callbacks) { h.cb = cb }

// Owner words pack (vm index, guest page frame) into one uint64:
// bit 63 valid, bits 62:40 the VM's ownerVMs index, bits 39:0 the guest
// page frame number (gpa>>12; the model's 2^52-byte address space needs
// exactly 40 frame bits).
const (
	ownerValid   = uint64(1) << 63
	ownerIDShift = 40
	ownerIDMask  = 1<<23 - 1
	ownerGPBits  = uint64(1)<<ownerIDShift - 1
)

func ownerWord(id int, gpa uint64) uint64 {
	return ownerValid | uint64(id)<<ownerIDShift | gpa>>addr.PageShift4K
}

// ownerRef decodes an owner word; the zero word decodes to (nil, 0).
func (h *Host) ownerRef(w uint64) (*VM, uint64) {
	if w == 0 {
		return nil, 0
	}
	return h.ownerVMs[w>>ownerIDShift&ownerIDMask], (w & ownerGPBits) << addr.PageShift4K
}

// acquireOwnerID registers vm in the owner-word index space.
func (h *Host) acquireOwnerID(vm *VM) {
	if n := len(h.freeIDs); n > 0 {
		vm.id = h.freeIDs[n-1]
		h.freeIDs = h.freeIDs[:n-1]
		h.ownerVMs[vm.id] = vm
		return
	}
	vm.id = len(h.ownerVMs)
	if vm.id > ownerIDMask {
		panic("vmm: VM index overflows owner word")
	}
	h.ownerVMs = append(h.ownerVMs, vm)
}

// releaseOwnerID recycles vm's slot; no owner word may reference it.
func (h *Host) releaseOwnerID(vm *VM) {
	h.ownerVMs[vm.id] = nil
	h.freeIDs = append(h.freeIDs, vm.id)
}

// NewHost creates a host machine with size bytes of physical memory.
func NewHost(size uint64) *Host {
	return &Host{Mem: physmem.New(physmem.Config{Name: "host", Size: size})}
}

// ownerMap returns the reverse map, building it on the first call from
// the nested-table leaves of every VM registered on the host, those
// still being created or migrated in included. Until ScanAndShare runs,
// no host frame backs two guest pages, so each leaf names its frame's
// only owner and the built map equals one kept since NewHost; once
// built, registerBacking and unregisterBacking keep it current.
// ScanAndShare builds it before its first remap, after which leaves no
// longer name a unique owner.
func (h *Host) ownerMap() []uint64 {
	if h.owners != nil {
		return h.owners
	}
	h.owners = make([]uint64, h.Mem.Frames())
	for _, vm := range h.ownerVMs {
		if vm == nil {
			continue
		}
		vm.NPT.VisitLeaves(func(gpa, hpa uint64, s addr.PageSize) bool {
			vm.registerBacking(gpa, hpa, s.Bytes())
			return true
		})
	}
	return h.owners
}

// VMs returns the host's virtual machines.
func (h *Host) VMs() []*VM { return h.vms }

// OwnerVM returns the VM whose guest page a host frame backs, and the
// guest physical address it backs. The second result is false for
// unowned frames (free, page-table pages, VMM-internal).
func (h *Host) OwnerVM(frame uint64) (*VM, uint64, bool) {
	owners := h.ownerMap()
	if frame >= uint64(len(owners)) {
		return nil, 0, false
	}
	vm, gpa := h.ownerRef(owners[frame])
	return vm, gpa, vm != nil
}

// OwnerRun returns OwnerVM(f)'s VM (nil if host frame f is unowned)
// and the length n ≥ 1 of the run of frames from f with that same VM.
func (h *Host) OwnerRun(f uint64) (vm *VM, n uint64) {
	owners := h.ownerMap()
	id := owners[f] &^ ownerGPBits
	for n = 1; f+n < uint64(len(owners)) && owners[f+n]&^ownerGPBits == id; n++ {
	}
	vm, _ = h.ownerRef(owners[f])
	return vm, n
}

// MemorySlot maps a contiguous guest physical range to host virtual
// addresses of the VMM process (Figure 10). KVM keeps two large slots:
// [0, 4GB) and [4GB, ∞).
type MemorySlot struct {
	GPA addr.Range
	// HVA is the modeled host-virtual base the slot maps to; it makes
	// the gPA→hVA→hPA chain of Figure 10 explicit.
	HVA uint64
}

// VMConfig configures a new virtual machine.
type VMConfig struct {
	Name string
	// MemorySize is the guest physical memory size.
	MemorySize uint64
	// IOGap carves the x86-64 I/O gap out of guest physical memory.
	IOGap bool
	// NestedPageSize is the page size the VMM uses for gPA→hPA
	// mappings (the second element of configurations like 4K+2M).
	NestedPageSize addr.PageSize
	// ContiguousBacking requests one contiguous host physical region
	// for the whole guest (the §VI.A boot-time reservation), the
	// precondition for a VMM segment.
	ContiguousBacking bool
}

// VM is one virtual machine.
type VM struct {
	Name     string
	host     *Host
	GuestMem *physmem.Memory
	// NPT is the nested page table (gPA→hPA), allocated in host memory.
	NPT *pagetable.Table
	// Slots are the KVM memory slots.
	Slots []MemorySlot

	cfg VMConfig
	// id is this VM's slot in host.ownerVMs while registered there.
	id int
	// vmmSeg holds the VM's BASE_V/LIMIT_V/OFFSET_V when enabled.
	vmmSeg segment.Registers
	// contig records the host base when backing is one contiguous run;
	// contigSize is how much of guest physical memory that run covers
	// (memory hotplugged after the boot-time reservation is backed by
	// scattered frames and must stay outside the VMM segment, §VI.C).
	contig     bool
	hostBase   uint64
	contigSize uint64
	// content maps a gPA page to its content hash (page-sharing model).
	content map[uint64]uint64
	// sharedFrames marks host frames mapped copy-on-write into this VM.
	sharedFrames map[uint64]bool
	cowBreaks    uint64
}

// CreateVM builds a VM and eagerly backs all usable guest physical
// memory with host memory at the configured nested page size.
func (h *Host) CreateVM(cfg VMConfig) (*VM, error) {
	if cfg.MemorySize == 0 || cfg.MemorySize%addr.PageSize4K != 0 {
		return nil, fmt.Errorf("vmm: bad memory size %#x", cfg.MemorySize)
	}
	vm := &VM{
		Name:         cfg.Name,
		host:         h,
		GuestMem:     physmem.New(physmem.Config{Name: cfg.Name, Size: cfg.MemorySize, IOGap: cfg.IOGap}),
		cfg:          cfg,
		content:      make(map[uint64]uint64),
		sharedFrames: make(map[uint64]bool),
	}
	npt, err := pagetable.New(h.Mem)
	if err != nil {
		return nil, fmt.Errorf("vmm: creating nested page table: %w", err)
	}
	vm.NPT = npt
	h.acquireOwnerID(vm)
	if err := vm.backAll(); err != nil {
		// Roll back whatever backing was installed before the failure
		// (host OOM mid-backing is routine on a dense host), so a failed
		// CreateVM leaks no host frames or table pages.
		vm.releaseAll()
		h.releaseOwnerID(vm)
		return nil, err
	}
	vm.buildSlots()
	h.vms = append(h.vms, vm)
	return vm, nil
}

// releaseAll frees every host frame registered to the VM and destroys
// its nested page table. It is the teardown half of backAll, used to
// roll back a partially built or partially migrated VM.
func (vm *VM) releaseAll() {
	type page struct {
		gpa, hpa uint64
		size     addr.PageSize
	}
	var pages []page
	vm.NPT.VisitLeaves(func(gpa, hpa uint64, s addr.PageSize) bool {
		pages = append(pages, page{gpa, hpa, s})
		return true
	})
	for _, p := range pages {
		if vm.NPT.Unmap(p.gpa, p.size) != nil {
			continue
		}
		vm.unregisterBacking(p.hpa, p.size.Bytes())
		for off := uint64(0); off < p.size.Bytes(); off += addr.PageSize4K {
			vm.host.Mem.FreeFrame(physmem.AddrToFrame(p.hpa + off))
		}
	}
	vm.NPT.Destroy()
}

// DestroyVM tears a VM down: every host frame backing it is freed, its
// nested table destroyed, and the VM removed from the host. A VM
// participating in copy-on-write sharing cannot be destroyed (freeing
// a canonical frame would strand the other VMs mapping it); break
// sharing first.
func (h *Host) DestroyVM(vm *VM) error {
	if len(vm.sharedFrames) > 0 {
		return ErrSharedBacking
	}
	vm.releaseAll()
	h.removeVM(vm)
	return nil
}

// buildSlots creates the two KVM slots around the 4GB boundary.
func (vm *VM) buildSlots() {
	size := vm.GuestMem.Size()
	const hvaBase = 0x7f00_0000_0000 // typical mmap region of the VMM process
	if size <= addr.IOGapEnd {
		vm.Slots = []MemorySlot{{GPA: addr.Range{Start: 0, Size: size}, HVA: hvaBase}}
		return
	}
	vm.Slots = []MemorySlot{
		{GPA: addr.Range{Start: 0, Size: addr.IOGapEnd}, HVA: hvaBase},
		{GPA: addr.Range{Start: addr.IOGapEnd, Size: size - addr.IOGapEnd}, HVA: hvaBase + addr.IOGapEnd},
	}
}

// backAll eagerly maps every usable guest frame to host memory.
func (vm *VM) backAll() error {
	if vm.cfg.ContiguousBacking {
		return vm.backContiguous()
	}
	return vm.backChunked()
}

// backContiguous reserves one host run covering the full guest span
// (including a shadow of the I/O gap, so offsets stay uniform) and maps
// usable pages.
func (vm *VM) backContiguous() error {
	frames := vm.GuestMem.Size() >> addr.PageShift4K
	alignFrames := vm.cfg.NestedPageSize.Bytes() >> addr.PageShift4K
	first, err := vm.host.Mem.AllocContiguous(frames, alignFrames)
	if err != nil {
		return ErrHostFragmented
	}
	vm.hostBase = physmem.FrameToAddr(first)
	vm.contig = true
	vm.contigSize = vm.GuestMem.Size()
	if err := vm.mapBacking(); err != nil {
		// Free the run frames the nested table never mapped (the tail
		// past the failure point, and the I/O gap's shadow); the mapped
		// prefix is released by CreateVM's releaseAll rollback, which
		// only sees mapped pages.
		for f := first; f < first+frames; f++ {
			if _, _, ok := vm.NPT.Translate((f - first) << addr.PageShift4K); !ok {
				vm.host.Mem.FreeFrame(f)
			}
		}
		vm.contig = false
		return err
	}
	return nil
}

// backChunked backs guest memory with independently allocated host
// chunks of the nested page size; 4K chunks go through the bulk
// pagetable.(*Table).Back4K.
func (vm *VM) backChunked() error {
	s := vm.cfg.NestedPageSize
	chunkFrames := s.Bytes() >> addr.PageShift4K
	for _, r := range vm.usableSpans() {
		if s == addr.Page4K {
			if mapped, err := vm.NPT.Back4K(r.Start, r.Size>>addr.PageShift4K, vm.host.Mem, vm.registerBacking); err != nil {
				return fmt.Errorf("vmm: backing %s at gPA %#x: %w", vm.Name, r.Start+mapped<<addr.PageShift4K, err)
			}
			continue
		}
		for gpa := r.Start; gpa < r.End(); gpa += s.Bytes() {
			first, err := vm.host.Mem.AllocContiguous(chunkFrames, chunkFrames)
			if err != nil {
				return fmt.Errorf("vmm: backing %s at gPA %#x: %w", vm.Name, gpa, err)
			}
			hpa := physmem.FrameToAddr(first)
			if err := vm.NPT.Map(gpa, hpa, s); err != nil {
				for f := first; f < first+chunkFrames; f++ {
					vm.host.Mem.FreeFrame(f) // unmapped chunk: releaseAll cannot see it
				}
				return err
			}
			vm.registerBacking(gpa, hpa, s.Bytes())
		}
	}
	return nil
}

// usableSpans returns guest physical memory less the I/O gap.
func (vm *VM) usableSpans() []addr.Range {
	size := vm.GuestMem.Size()
	if !vm.cfg.IOGap || size <= addr.IOGapStart {
		return []addr.Range{{Start: 0, Size: size}}
	}
	spans := []addr.Range{{Start: 0, Size: addr.IOGapStart}}
	if size > addr.IOGapEnd {
		spans = append(spans, addr.Range{Start: addr.IOGapEnd, Size: size - addr.IOGapEnd})
	}
	return spans
}

// mapBacking maps usable guest memory linearly onto the reserved run at
// hostBase: 4K spans in one MapRange4K each, larger pages chunk by
// chunk.
func (vm *VM) mapBacking() error {
	s := vm.cfg.NestedPageSize
	for _, r := range vm.usableSpans() {
		if s == addr.Page4K {
			mapped, err := vm.NPT.MapRange4K(r.Start, vm.hostBase+r.Start, r.Size>>addr.PageShift4K)
			vm.registerBacking(r.Start, vm.hostBase+r.Start, mapped<<addr.PageShift4K)
			if err != nil {
				return err
			}
			continue
		}
		for gpa := r.Start; gpa < r.End(); gpa += s.Bytes() {
			if err := vm.NPT.Map(gpa, vm.hostBase+gpa, s); err != nil {
				return err
			}
			vm.registerBacking(gpa, vm.hostBase+gpa, s.Bytes())
		}
	}
	return nil
}

// registerBacking and unregisterBacking keep a built reverse map
// current; before ownerMap builds it they have nothing to update.
func (vm *VM) registerBacking(gpa, hpa, size uint64) {
	owners := vm.host.owners
	if owners == nil {
		return
	}
	for off := uint64(0); off < size; off += addr.PageSize4K {
		owners[physmem.AddrToFrame(hpa+off)] = ownerWord(vm.id, gpa+off)
	}
}

func (vm *VM) unregisterBacking(hpa, size uint64) {
	owners := vm.host.owners
	if owners == nil {
		return
	}
	for off := uint64(0); off < size; off += addr.PageSize4K {
		owners[physmem.AddrToFrame(hpa+off)] = 0
	}
}

// VMMSegment returns the VM's segment registers (disabled if not set).
func (vm *VM) VMMSegment() segment.Registers { return vm.vmmSeg }

// TryEnableVMMSegment programs BASE_V/LIMIT_V/OFFSET_V when the VM's
// backing is one contiguous host run. Returns ErrHostFragmented when it
// is not — the caller may run host compaction and retry, the Table III
// transition.
func (vm *VM) TryEnableVMMSegment() (segment.Registers, error) {
	if vm.contig {
		// Cover only the linearly backed boot-time reservation: memory
		// hotplugged afterwards is backed by scattered frames and must
		// keep taking the nested paging path.
		vm.vmmSeg = segment.NewRegisters(0, vm.hostBase, vm.contigSize)
		return vm.vmmSeg, nil
	}
	// Attempt relocation into a single free run (the slow path after
	// host compaction has created space).
	frames := vm.GuestMem.Size() >> addr.PageShift4K
	first, err := vm.host.Mem.AllocContiguous(frames, 1)
	if err != nil {
		return segment.Registers{}, ErrHostFragmented
	}
	newBase := physmem.FrameToAddr(first)
	// Migrate every backed page to its linear position and release the
	// old backing.
	type moved struct {
		gpa, oldHPA uint64
		size        addr.PageSize
	}
	var moves []moved
	vm.NPT.VisitLeaves(func(gpa, hpa uint64, s addr.PageSize) bool {
		moves = append(moves, moved{gpa: gpa, oldHPA: hpa, size: s})
		return true
	})
	for _, mv := range moves {
		if err := vm.NPT.Remap(mv.gpa, newBase+mv.gpa); err != nil {
			return segment.Registers{}, err
		}
		vm.unregisterBacking(mv.oldHPA, mv.size.Bytes())
		for off := uint64(0); off < mv.size.Bytes(); off += addr.PageSize4K {
			if err := vm.host.Mem.FreeFrame(physmem.AddrToFrame(mv.oldHPA + off)); err != nil {
				return segment.Registers{}, err
			}
		}
		vm.registerBacking(mv.gpa, newBase+mv.gpa, mv.size.Bytes())
	}
	vm.hostBase = newBase
	vm.contig = true
	vm.contigSize = vm.GuestMem.Size()
	vm.vmmSeg = segment.NewRegisters(0, newBase, vm.GuestMem.Size())
	return vm.vmmSeg, nil
}

// DisableVMMSegment clears the registers (e.g. before VMM swapping).
func (vm *VM) DisableVMMSegment() { vm.vmmSeg = segment.Disabled() }

// Compact runs the host compaction daemon and repairs every affected
// VM's nested mappings. It returns the number of frames relocated.
// Callers must invalidate MMU nested state afterwards.
func (h *Host) Compact() (int, error) {
	owners := h.ownerMap() // names the owners of the frames about to move
	moves := h.Mem.Compact()
	for _, mv := range moves {
		w := owners[mv.Old]
		refVM, refGPA := h.ownerRef(w)
		if refVM == nil {
			continue // page-table page or other unowned frame: its data
			// structure holds Go pointers, not addresses, so moving the
			// physical frame needs no repair in the model.
		}
		// Only 4K-backed VMs can have individual frames relocated; a
		// frame inside a 2M/1G nested mapping moving alone would split
		// the mapping. The compactor does not know mappings, so repair
		// must re-point the 4K leaf.
		if refVM.cfg.NestedPageSize != addr.Page4K {
			return 0, fmt.Errorf("vmm: compaction moved frame inside a %v nested mapping",
				refVM.cfg.NestedPageSize)
		}
		if err := refVM.NPT.Remap(refGPA, physmem.FrameToAddr(mv.New)); err != nil {
			return 0, fmt.Errorf("vmm: repairing nested mapping after compaction: %w", err)
		}
		owners[mv.Old] = 0
		owners[mv.New] = w
		if refVM.contig {
			refVM.contig = false // relocation broke linearity
		}
	}
	return len(moves), nil
}

// --- guestos.VMMBackend implementation (self-ballooning, §VI.C) ---

// Balloon receives pinned guest frames from the balloon driver and
// reclaims their host backing.
func (vm *VM) Balloon(frames []uint64) error {
	if vm.cfg.NestedPageSize != addr.Page4K {
		return ErrBadNestedSize
	}
	for _, gf := range frames {
		gpa := physmem.FrameToAddr(gf)
		hpa, _, ok := vm.NPT.Translate(gpa)
		if !ok {
			return fmt.Errorf("%w: gPA %#x", ErrNoBacking, gpa)
		}
		if err := vm.NPT.Unmap(gpa, addr.Page4K); err != nil {
			return err
		}
		vm.unregisterBacking(hpa, addr.PageSize4K)
		if err := vm.host.Mem.FreeFrame(physmem.AddrToFrame(hpa)); err != nil {
			return err
		}
		vm.contig = false
		if vm.host.cb.Ballooned != nil {
			vm.host.cb.Ballooned(vm, gpa)
		}
	}
	return nil
}

// HotplugAdd extends guest physical memory by size bytes (KVM: extends
// the high slot) and backs it with host frames; the new gPA range is
// contiguous even though its host backing need not be.
func (vm *VM) HotplugAdd(size uint64) (addr.Range, error) {
	if vm.cfg.NestedPageSize != addr.Page4K {
		return addr.Range{}, ErrBadNestedSize
	}
	r, err := vm.GuestMem.Grow(size)
	if err != nil {
		return addr.Range{}, err
	}
	for gpa := r.Start; gpa < r.End(); gpa += addr.PageSize4K {
		f, err := vm.host.Mem.AllocFrame()
		if err != nil {
			vm.rollbackHotplug(r, gpa)
			return addr.Range{}, fmt.Errorf("vmm: backing hotplug: %w", err)
		}
		hpa := physmem.FrameToAddr(f)
		if err := vm.NPT.Map(gpa, hpa, addr.Page4K); err != nil {
			vm.host.Mem.FreeFrame(f)
			vm.rollbackHotplug(r, gpa)
			return addr.Range{}, err
		}
		vm.registerBacking(gpa, hpa, addr.PageSize4K)
	}
	vm.buildSlots()
	// Extend the high slot to cover the growth (§VI.C: "We extend the
	// second KVM slot by the same amount of memory").
	if vm.host.cb.Hotplugged != nil {
		vm.host.cb.Hotplugged(vm, r)
	}
	return r, nil
}

// rollbackHotplug releases the backing installed for [r.Start, upTo)
// after a mid-loop HotplugAdd failure, so a failed hotplug leaks no
// host frames. The grown guest range stays offline (it was never
// returned to the caller, so the guest cannot online it).
func (vm *VM) rollbackHotplug(r addr.Range, upTo uint64) {
	for gpa := r.Start; gpa < upTo; gpa += addr.PageSize4K {
		hpa, _, ok := vm.NPT.Translate(gpa)
		if !ok {
			continue
		}
		if vm.NPT.Unmap(gpa, addr.Page4K) != nil {
			continue
		}
		vm.unregisterBacking(hpa, addr.PageSize4K)
		vm.host.Mem.FreeFrame(physmem.AddrToFrame(hpa))
	}
}

// RetirePage models a hard memory fault in a page of the VM's backing
// (§V): the failing host frame is marked bad and freed (the allocator
// never hands out bad frames again), a healthy replacement is
// allocated, and the nested mapping repointed at it. Returns the
// replacement hPA. For a segment-mapped guest this is the event that
// forces an escape: the caller inserts the page into the escape filter
// and invalidates nested TLB state.
func (vm *VM) RetirePage(gpa uint64) (uint64, error) {
	gpa = addr.PageBase(gpa, addr.Page4K)
	hpa, s, ok := vm.NPT.Translate(gpa)
	if !ok {
		return 0, fmt.Errorf("%w: gPA %#x", ErrNoBacking, gpa)
	}
	if s != addr.Page4K {
		return 0, ErrBadNestedSize
	}
	oldFrame := physmem.AddrToFrame(hpa)
	if vm.sharedFrames[oldFrame] {
		return 0, fmt.Errorf("vmm: retiring shared frame %d: break sharing first", oldFrame)
	}
	f, err := vm.host.Mem.AllocFrame()
	if err != nil {
		return 0, fmt.Errorf("vmm: retire replacement: %w", err)
	}
	newHPA := physmem.FrameToAddr(f)
	if err := vm.NPT.Remap(gpa, newHPA); err != nil {
		vm.host.Mem.FreeFrame(f)
		return 0, err
	}
	vm.unregisterBacking(hpa, addr.PageSize4K)
	vm.registerBacking(gpa, newHPA, addr.PageSize4K)
	if err := vm.host.Mem.MarkBad(oldFrame); err != nil {
		return 0, err
	}
	if err := vm.host.Mem.FreeFrame(oldFrame); err != nil {
		return 0, err
	}
	vm.contig = false
	return newHPA, nil
}

// HotplugRemove releases the host backing of an unplugged guest range.
func (vm *VM) HotplugRemove(r addr.Range) error {
	if vm.cfg.NestedPageSize != addr.Page4K {
		return ErrBadNestedSize
	}
	for gpa := r.Start; gpa < r.End(); gpa += addr.PageSize4K {
		hpa, _, ok := vm.NPT.Translate(gpa)
		if !ok {
			continue // already unbacked (e.g. I/O gap shadow)
		}
		if err := vm.NPT.Unmap(gpa, addr.Page4K); err != nil {
			return err
		}
		vm.unregisterBacking(hpa, addr.PageSize4K)
		if err := vm.host.Mem.FreeFrame(physmem.AddrToFrame(hpa)); err != nil {
			return err
		}
		vm.contig = false
		if vm.host.cb.Unplugged != nil {
			vm.host.cb.Unplugged(vm, gpa)
		}
	}
	return nil
}

// BackedFrames returns how many host frames currently back this VM.
func (vm *VM) BackedFrames() uint64 {
	var n uint64
	want := ownerValid | uint64(vm.id)<<ownerIDShift
	for _, w := range vm.host.ownerMap() {
		if w&^ownerGPBits == want {
			n++
		}
	}
	return n
}
