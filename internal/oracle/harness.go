// The differential checker: one reference Model and two production
// MMUs (a strict geometry with exact closed-form cost assertions, and a
// tiny-cache geometry that maximizes TLB/PTE-cache pressure) driven in
// lockstep over the same guest process, VM and page tables by an
// encoded operation stream. Every access is translated through both
// MMUs and compared against the oracle; every mutation (map, unmap,
// segment resize, mode switch, bad-page escape, ballooning, migration)
// is applied to both worlds.
//
// The fuzz targets feed this harness raw bytes; deterministic tests
// feed it hand-built op streams. Because both MMUs must match the same
// cache-free oracle, the harness simultaneously proves the metamorphic
// property that cache geometry never changes a translation.

package oracle

import (
	"fmt"

	"vdirect/internal/addr"
	"vdirect/internal/guestos"
	"vdirect/internal/mmu"
	"vdirect/internal/ptecache"
	"vdirect/internal/segment"
	"vdirect/internal/tlb"
	"vdirect/internal/vmm"
)

// Harness geometry. Sizes are small so a fuzz iteration builds the
// full production stack in well under a millisecond of simulated
// setup, while still spanning multiple PML4/PDPT/PD indices.
const (
	guestSize = 16 << 20 // guest physical memory (4K/2M nested harness)
	hostSize  = 40 << 20 // host physical memory (4K/2M nested harness)

	// PrimBase is the primary region (guest-segment candidate): 256
	// 4K pages backed by a contiguous guest physical run.
	PrimBase  = 0x4000_0000
	primPages = 256
	// PagedBase is a conventionally paged region of 512 4K pages.
	PagedBase  = 0x5000_0000
	pagedPages = 512
	// HugeBase is a 2M-aligned region with two 2M mapping slots.
	HugeBase  = 0x6000_0000
	hugeSlots = 2

	// refCycles is the uniform PTE-reference cost of the strict MMU
	// (hit == miss), making walk cycles exactly predictable.
	refCycles = 10
)

// strictConfig is the geometry the closed-form cost model predicts
// exactly: no paging-structure caches, no nested TLB, and a PTE cache
// whose hit and miss cost the same.
func strictConfig() mmu.Config {
	return mmu.Config{
		DisablePWC:       true,
		DisableNestedTLB: true,
		PTECache: ptecache.Config{
			Lines: 512, Ways: 4,
			HitCycles: refCycles, MissCycles: refCycles,
		},
	}
}

// pressureConfig shrinks every cache to a handful of entries so the
// fuzzer constantly exercises eviction, refill and invalidation paths.
func pressureConfig() mmu.Config {
	return mmu.Config{
		L1: tlb.Geometry{
			Entries4K: 8, Ways4K: 4,
			Entries2M: 4, Ways2M: 4,
			Entries1G: 4, Ways1G: 4,
		},
		L2Entries: 16, L2Ways: 4,
		PTECache: ptecache.Config{Lines: 64, Ways: 4, HitCycles: 18, MissCycles: 170},
	}
}

// procState parks one guest process's half of both worlds while the
// other process runs: the production process handle plus the oracle's
// per-address-space maps. The ASID equals the process index, so tagged
// context switches can leave the parked process's TLB entries resident.
type procState struct {
	proc     *guestos.Process
	guest    map[uint64]Mapping
	escaped  map[uint64]bool
	primGPA  uint64
	segPages uint64
}

// Harness owns one differential scenario.
type Harness struct {
	model  *Model
	host   *vmm.Host
	vm     *vmm.VM
	kernel *guestos.Kernel
	proc   *guestos.Process

	// procs holds both guest processes' parked state; cur indexes the
	// one whose fields are live in proc/primGPA/guestSegPages and in
	// the model's guest-dimension maps.
	procs [2]procState
	cur   int

	// mmus[0] is the strict geometry, mmus[1] the pressure geometry.
	mmus [2]*mmu.MMU

	vmmRegs segment.Registers // full-guest VMM segment registers
	primGPA uint64            // gPA backing PrimBase

	// Nested-dimension geometry: the page size backing gPA→hPA, its
	// walk depth (4/3/2 for 4K/2M/1G — the 24-, 19- and 14-ref rows of
	// the mode table), and the physical sizes, which grow for 1G so the
	// guest spans at least one whole nested leaf.
	nestedSize   addr.PageSize
	nestedLevels uint64
	guestBytes   uint64
	hostBytes    uint64

	virtualized   bool
	guestSegPages uint64 // current guest-segment span in pages (0 = off)

	// OS-side PCID bookkeeping for opContextSwitch. curAsid shadows the
	// MMUs' ASID register (untagged switches leave it unchanged, so the
	// harness must know where inserts are landing); asidOwner[a] is the
	// process whose translations may live under tag a (-1 = none). A
	// tagged switch that would reuse a slot last populated by the OTHER
	// process must INVPCID it first — exactly the hazard a real OS
	// avoids when it mixes non-PCID and PCID switching (Linux's
	// choose_new_asid does the same slot-generation check).
	curAsid   uint16
	asidOwner [2]int8
	vmmSegOn  bool
	flat      bool // flattened nested walks (latent while unvirtualized)

	// filtersClean is true until the first escape-filter insertion;
	// while true, the Bloom filters provably produce no positives and
	// the strict MMU must match the closed-form cost model exactly.
	filtersClean bool

	accesses []uint64 // every access VA, for the monotonicity check
	ops      int
}

// NewHarness builds the production stack (host, VM with contiguous
// backing, guest kernel, process with a segment-backed primary region)
// and the mirroring oracle, starting in Dual Direct mode with 4K
// nested pages.
func NewHarness() (*Harness, error) {
	return NewHarnessNested(addr.Page4K)
}

// NewHarnessNested is NewHarness with the VM backed at the given
// nested page size, so the shallower 2D-walk rows of the mode table
// (19 refs for 2M nested, 14 for 1G) run under the same differential
// checks as the 4K default.
func NewHarnessNested(nested addr.PageSize) (*Harness, error) {
	h := &Harness{
		model:        NewModel(),
		virtualized:  true,
		vmmSegOn:     true,
		filtersClean: true,
		nestedSize:   nested,
		nestedLevels: Levels(nested),
		guestBytes:   guestSize,
		hostBytes:    hostSize,
		// Process 0 boots under the MMUs' reset ASID 0; tag 1 is clean.
		asidOwner: [2]int8{0, -1},
	}
	if nested == addr.Page1G {
		// The guest must span one whole 1G leaf; the host needs that
		// backing run plus a second 1G-aligned run so one whole-leaf
		// migration (opEscapeVMM) can succeed, plus page-table slack.
		h.guestBytes = 1 << 30
		h.hostBytes = 3<<30 + 64<<20
	}
	h.host = vmm.NewHost(h.hostBytes)
	vm, err := h.host.CreateVM(vmm.VMConfig{
		Name:              "oracle-fuzz",
		MemorySize:        h.guestBytes,
		NestedPageSize:    nested,
		ContiguousBacking: true,
	})
	if err != nil {
		return nil, fmt.Errorf("oracle: creating VM: %w", err)
	}
	h.vm = vm
	h.kernel = guestos.NewKernel(vm.GuestMem, vm)
	proc, err := h.kernel.CreateProcess("fuzz")
	if err != nil {
		return nil, err
	}
	h.proc = proc
	if err := proc.CreatePrimaryRegionAt(addr.Range{Start: PrimBase, Size: primPages << addr.PageShift4K}); err != nil {
		return nil, fmt.Errorf("oracle: primary region: %w", err)
	}
	if err := proc.MMapAt(addr.Range{Start: PagedBase, Size: pagedPages << addr.PageShift4K}); err != nil {
		return nil, err
	}
	if err := proc.MMapAt(addr.Range{Start: HugeBase, Size: hugeSlots << addr.PageShift2M}); err != nil {
		return nil, err
	}
	// A second guest process, symmetric with the first: its own primary
	// region (distinct gPA backing, so its segment translates
	// differently), its own demand-paged regions, its own page table.
	// ASIDs equal process indices; process 0 matches the MMUs' reset
	// ASID so single-process op streams behave exactly as before.
	procB, err := h.kernel.CreateProcess("fuzz-b")
	if err != nil {
		return nil, err
	}
	if err := procB.CreatePrimaryRegionAt(addr.Range{Start: PrimBase, Size: primPages << addr.PageShift4K}); err != nil {
		return nil, fmt.Errorf("oracle: primary region B: %w", err)
	}
	if err := procB.MMapAt(addr.Range{Start: PagedBase, Size: pagedPages << addr.PageShift4K}); err != nil {
		return nil, err
	}
	if err := procB.MMapAt(addr.Range{Start: HugeBase, Size: hugeSlots << addr.PageShift2M}); err != nil {
		return nil, err
	}
	h.procs[1] = procState{
		proc:     procB,
		guest:    make(map[uint64]Mapping),
		escaped:  make(map[uint64]bool),
		primGPA:  procB.Seg.Translate(PrimBase),
		segPages: primPages,
	}

	h.vmmRegs, err = vm.TryEnableVMMSegment()
	if err != nil {
		return nil, fmt.Errorf("oracle: VMM segment: %w", err)
	}
	h.primGPA = proc.Seg.Translate(PrimBase)
	h.guestSegPages = primPages

	h.mmus[0] = mmu.New(strictConfig())
	h.mmus[1] = mmu.New(pressureConfig())
	for _, m := range h.mmus {
		m.SetGuestPageTable(proc.PT)
		m.SetNestedPageTable(vm.NPT)
		m.SetGuestSegment(proc.Seg)
		m.SetVMMSegment(h.vmmRegs)
	}

	// Mirror architectural state into the oracle. The nested map is
	// snapshotted from the NPT's software view once at build time; from
	// here on the two worlds evolve only through harness operations.
	h.model.Virtualized = true
	h.model.GuestSeg = Segment{Base: proc.Seg.Base, Limit: proc.Seg.Limit, Offset: proc.Seg.Offset}
	h.model.VMMSeg = Segment{Base: h.vmmRegs.Base, Limit: h.vmmRegs.Limit, Offset: h.vmmRegs.Offset}
	vm.NPT.VisitLeaves(func(gpa, hpa uint64, s addr.PageSize) bool {
		h.model.MapNested(gpa, hpa, s)
		return true
	})
	return h, nil
}

// Model exposes the reference model (tests poke it for assertions).
func (h *Harness) Model() *Model { return h.model }

// Accesses returns every access VA the run performed, in order.
func (h *Harness) Accesses() []uint64 { return h.accesses }

// MMUStats snapshots both production MMUs' counters (strict geometry
// first) so determinism tests can compare whole runs.
func (h *Harness) MMUStats() [2]mmu.Stats {
	return [2]mmu.Stats{h.mmus[0].Stats(), h.mmus[1].Stats()}
}

// opReader decodes the fuzzer's byte stream; reads past the end yield
// zero so truncated inputs stay valid.
type opReader struct {
	data []byte
	pos  int
}

func (r *opReader) next() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

func (r *opReader) done() bool { return r.pos >= len(r.data) }

// NestedSizeFromFlags decodes bits 1-2 of an op stream's flag byte
// into the nested page size the harness should be built with: 4K by
// default, 2M or 1G when the fuzzer sets the bits. The remaining two-
// bit value wraps to 4K so every byte decodes to a valid geometry.
func NestedSizeFromFlags(flags byte) addr.PageSize {
	switch (flags >> 1) & 3 {
	case 1:
		return addr.Page2M
	case 2:
		return addr.Page1G
	default:
		return addr.Page4K
	}
}

// HarnessForInput builds the harness an encoded op stream asks for:
// the flag byte (byte 0) both configures the build — bits 1-2 select
// the nested page size, bit 3 starts the stack with flattened nested
// walks — and directs the run (bit 0, see Run).
func HarnessForInput(data []byte) (*Harness, error) {
	var flags byte
	if len(data) > 0 {
		flags = data[0]
	}
	h, err := NewHarnessNested(NestedSizeFromFlags(flags))
	if err != nil {
		return nil, err
	}
	if flags&flagFlat != 0 {
		h.setFlat(true)
	}
	return h, nil
}

// Run decodes and executes the whole op stream, then checks the
// end-of-run statistics identities. The first byte is a flag byte:
// bit 0 additionally replays the run's accesses through three fresh
// single-mode stacks and checks the mode-table monotonicity invariant
// (bits 1-2 select the nested page size, consumed by HarnessForInput
// at build time, not here).
func (h *Harness) Run(data []byte) error {
	r := &opReader{data: data}
	flags := r.next()
	for !r.done() {
		if err := h.step(r); err != nil {
			return fmt.Errorf("op %d: %w", h.ops, err)
		}
		h.ops++
	}
	if err := h.CheckStats(); err != nil {
		return err
	}
	if flags&1 != 0 && len(h.accesses) > 0 {
		vas := h.accesses
		if len(vas) > 512 {
			vas = vas[:512]
		}
		return CheckModeMonotonicity(vas)
	}
	return nil
}

// step executes one operation. Op bytes dispatch through a weighted
// 256-entry table (the op* range-start constants in seeds.go) rather
// than a uniform mod: just under half the byte space goes to accesses
// — the comparison itself — and the rest is deliberately skewed toward
// segment resizes and the two mode toggles, the transitions where walk
// dimensionality changes and a stale-TLB or mis-charged-cost bug has
// the most places to hide.
func (h *Harness) step(r *opReader) error {
	op := r.next()
	switch {
	case op < opMap: // 120/256: access
		return h.access(h.decodeVA(r.next(), r.next()))
	case op < opUnmap: // 16/256: map
		return h.opMap(r.next(), r.next())
	case op < opResize: // 16/256: unmap
		return h.opUnmap(r.next(), r.next())
	case op < opToggleVMM: // 24/256: guest-segment resize
		return h.opResizeGuestSegment(r.next())
	case op < opToggleVirt: // 24/256: VMM-segment toggle
		h.opToggleVMMSegment()
	case op < opEscGuest: // 24/256: virtualization toggle
		h.opToggleVirtualized()
	case op < opSub: // 16/256: guest-page escape
		return h.opEscapeGuest(r.next())
	default: // 16/256: sub-op
		b := r.next()
		switch b % 7 {
		case subEscVMM:
			return h.opEscapeVMM(r.next(), r.next())
		case subBalloon:
			return h.opBalloon()
		case subFlush:
			for _, m := range h.mmus {
				m.FlushTLBs()
			}
		case subSwitch:
			h.opContextSwitch(r.next())
		case subFlushASID:
			// Flush one address space's cached translations (INVPCID):
			// pure cache surgery, so the oracle model is untouched — the
			// differential check proves it never changes a translation.
			asid := uint16(r.next()) % 2
			for _, m := range h.mmus {
				m.FlushASID(asid)
			}
			// The slot is only truly empty if it isn't the live tag: the
			// running process repopulates its own slot on the very next
			// insert, so its ownership must survive the flush or a later
			// tagged switch would adopt those entries without flushing.
			if asid == h.curAsid {
				h.asidOwner[asid] = int8(h.cur)
			} else {
				h.asidOwner[asid] = -1
			}
		case subToggleFlat:
			// Flip the flattened-nested-walk flag. Flattening is a
			// walk-cost mechanism, never a translation change, so the
			// oracle model is untouched: the differential check proves
			// the flat walker resolves and faults exactly as the base 2D
			// walk, while checkCost holds it to the flattened closed form.
			h.setFlat(!h.flat)
		case subInvlPage:
			// INVLPG of an arbitrary page: pure cache surgery (the
			// mapping itself is untouched, so surviving entries stay
			// valid and the oracle model needs no update). Exercises
			// per-page invalidation against the last-page cache and both
			// TLB levels. Unmaps and remaps go through the same
			// InvalidatePage, where an entry it failed to drop would
			// serve a translation the flat-map reference disagrees with.
			va := addr.PageBase(h.decodeVA(r.next(), r.next()), addr.Page4K)
			for _, m := range h.mmus {
				m.InvalidatePage(va, addr.Page4K)
			}
		}
	}
	return nil
}

// opContextSwitch swaps the live guest process. Bit 0 of the operand
// picks the mechanism: tagged (ASID/PCID retag, both processes'
// entries stay resident under distinct tags) or untagged (the 2014-era
// full flush). Both worlds swap their per-address-space state; machine-
// wide state (virtualization, VMM segment, nested maps, filters) stays.
func (h *Harness) opContextSwitch(b byte) {
	// Park the live process's half of both worlds...
	h.procs[h.cur] = procState{
		proc:     h.proc,
		guest:    h.model.Guest,
		escaped:  h.model.EscapedGuest,
		primGPA:  h.primGPA,
		segPages: h.guestSegPages,
	}
	// ...and wake the other's.
	h.cur = 1 - h.cur
	st := h.procs[h.cur]
	h.proc = st.proc
	h.model.Guest = st.guest
	h.model.EscapedGuest = st.escaped
	h.primGPA = st.primGPA
	h.guestSegPages = st.segPages

	regs := segment.NewRegisters(PrimBase, h.primGPA, h.guestSegPages<<addr.PageShift4K)
	if tagged := b&1 != 0; tagged {
		next := uint16(h.cur)
		// Reusing a PCID slot the other process's translations still
		// occupy (an untagged timeslice inserts under whatever ASID the
		// register held) would hand those translations to the incoming
		// process; flush the slot first, as an OS mixing non-PCID and
		// PCID switching must.
		if o := h.asidOwner[next]; o != int8(h.cur) && o != -1 {
			for _, m := range h.mmus {
				m.FlushASID(next)
			}
		}
		for _, m := range h.mmus {
			m.ContextSwitchASID(h.proc.PT, regs, next)
		}
		h.curAsid = next
		h.asidOwner[next] = int8(h.cur)
	} else {
		for _, m := range h.mmus {
			m.ContextSwitch(h.proc.PT, regs)
		}
		// The full flush emptied every slot; the incoming process's
		// inserts land under the unchanged ASID register.
		h.asidOwner = [2]int8{-1, -1}
		h.asidOwner[h.curAsid] = int8(h.cur)
	}
	h.model.GuestSeg = Segment{Base: regs.Base, Limit: regs.Limit, Offset: regs.Offset}
}

// setFlat switches both production MMUs between the base and flattened
// nested walkers. The flush mirrors the other mode transitions so cost
// checks always see cold TLBs after a switch; the oracle model has no
// flat notion at all — identical translations are the whole point.
func (h *Harness) setFlat(on bool) {
	h.flat = on
	for _, m := range h.mmus {
		m.SetFlatNested(on)
		m.FlushTLBs()
	}
}

// decodeVA maps two operand bytes onto an address in one of the three
// regions, with a sub-page offset so offset arithmetic is exercised.
// Half the primary-region selectors aim within ±16 pages of the live
// guest-segment limit: the covered↔uncovered boundary is where the 0D
// fast path, the walker and demand paging hand off to each other.
func (h *Harness) decodeVA(b1, b2 byte) uint64 {
	off := ((uint64(b1)>>2)*64 + uint64(b2)) & 0xfff
	switch b1 & 3 {
	case 0:
		return PrimBase + uint64(b2)%primPages<<addr.PageShift4K + off
	case 1:
		p := (h.guestSegPages + primPages - 16 + uint64(b2)%33) % primPages
		return PrimBase + p<<addr.PageShift4K + off
	case 2:
		idx := (uint64(b1)>>2<<8 | uint64(b2)) % pagedPages
		return PagedBase + idx<<addr.PageShift4K + off
	default:
		idx := (uint64(b1)>>2<<8 | uint64(b2)) % (hugeSlots << 9)
		return HugeBase + idx<<addr.PageShift4K + off
	}
}

func (h *Harness) inRegion(va uint64) bool {
	switch {
	case va >= PrimBase && va < PrimBase+primPages<<addr.PageShift4K:
		return true
	case va >= PagedBase && va < PagedBase+pagedPages<<addr.PageShift4K:
		return true
	case va >= HugeBase && va < HugeBase+uint64(hugeSlots)<<addr.PageShift2M:
		return true
	}
	return false
}

// access translates va through both MMUs and compares each against the
// oracle, servicing agreed demand-paging faults and §V false-positive
// faults the way the guest OS would.
func (h *Harness) access(va uint64) error {
	h.accesses = append(h.accesses, va)
	for i, m := range h.mmus {
		if err := h.accessOne(m, i == 0, va); err != nil {
			return fmt.Errorf("mmu[%d] va %#x: %w", i, va, err)
		}
	}
	return nil
}

func (h *Harness) accessOne(m *mmu.MMU, strict bool, va uint64) error {
	for attempt := 0; attempt < 3; attempt++ {
		want := h.model.Translate(va)
		st0 := m.Stats()
		res, fault := m.Translate(va)
		if fault != nil {
			if fault.Kind == mmu.FaultNested {
				if want.Fault == FaultNested && want.Addr == fault.Addr {
					return nil // agreed nested fault: nothing to service
				}
				return fmt.Errorf("nested fault at gPA %#x, oracle predicts %v", fault.Addr, want)
			}
			switch {
			case want.Fault == FaultGuest:
				if fault.Addr != want.Addr {
					return fmt.Errorf("guest fault at %#x, oracle predicts fault at %#x", fault.Addr, want.Addr)
				}
				if !h.inRegion(va) {
					return nil // agreed fault outside any region
				}
				if err := h.demandPage(va); err != nil {
					return nil // agreed fault, no frames left to service it
				}
				continue
			case want.GuestCovered:
				// §V false positive: production must only have taken the
				// paging path because the filter reported the page, and the
				// OS contract is to install the identity PTE and retry.
				if !m.GuestEscapeFilter().MayContain(va >> addr.PageShift4K) {
					return fmt.Errorf("guest fault at %#x inside covered segment without a filter hit", fault.Addr)
				}
				if _, ok := h.model.Guest[va>>addr.PageShift4K]; ok {
					return fmt.Errorf("guest fault at %#x but the page is mapped", fault.Addr)
				}
				if err := h.mapFalsePositive(va); err != nil {
					return err
				}
				continue
			default:
				return fmt.Errorf("unexpected guest fault at %#x (oracle: HPA %#x)", fault.Addr, want.HPA)
			}
		}
		if want.Fault != FaultNone {
			return fmt.Errorf("translated to %#x where oracle predicts a fault (kind %d at %#x)",
				res.HPA, want.Fault, want.Addr)
		}
		if res.HPA != want.HPA {
			return fmt.Errorf("translated to %#x, oracle says %#x (covered guest=%v vmm=%v)",
				res.HPA, want.HPA, want.GuestCovered, want.VMMCovered)
		}
		if strict && h.filtersClean {
			if err := h.checkCost(m, st0, res, want); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("still faulting after service")
}

// demandPage services an agreed guest fault with a fresh frame, in both
// worlds. An allocation failure is reported to the caller (the access
// then stands as an agreed fault).
func (h *Harness) demandPage(va uint64) error {
	f, err := h.kernel.Mem.AllocFrame()
	if err != nil {
		return err
	}
	page := addr.PageBase(va, addr.Page4K)
	gpa := f << addr.PageShift4K
	if err := h.proc.PT.Map(page, gpa, addr.Page4K); err != nil {
		return fmt.Errorf("demand paging %#x: %v", page, err)
	}
	h.model.MapGuest(page, gpa, addr.Page4K)
	return nil
}

// mapFalsePositive installs the identity PTE the VMM owes a
// falsely-escaped page (§V: mappings must exist for filter hits whether
// true or false), so the paging path reproduces the segment's result.
func (h *Harness) mapFalsePositive(va uint64) error {
	page := addr.PageBase(va, addr.Page4K)
	gpa := addr.PageBase(h.model.GuestSeg.Translate(va), addr.Page4K)
	if err := h.proc.PT.Map(page, gpa, addr.Page4K); err != nil {
		return fmt.Errorf("false-positive mapping %#x: %v", page, err)
	}
	h.model.MapGuest(page, gpa, addr.Page4K)
	return nil
}

// checkCost holds the strict MMU to the closed-form mode table: exact
// reference, check and cycle counts per resolution class. Valid only
// while every escape filter is clean.
func (h *Harness) checkCost(m *mmu.MMU, st0 mmu.Stats, res mmu.Result, want Prediction) error {
	st1 := m.Stats()
	walks := st1.Walks - st0.Walks
	refs := st1.WalkMemRefs - st0.WalkMemRefs
	checks := st1.SegmentChecks - st0.SegmentChecks
	switch {
	case res.L1Hit:
		if res.Cycles != 0 || walks != 0 || refs != 0 {
			return fmt.Errorf("L1 hit with cost (cycles %d, walks %d, refs %d)", res.Cycles, walks, refs)
		}
	case res.ZeroD:
		wantCovered := want.GuestCovered && (!h.virtualized || want.VMMCovered)
		if !wantCovered {
			return fmt.Errorf("0D translation where oracle says coverage guest=%v vmm=%v",
				want.GuestCovered, want.VMMCovered)
		}
		if walks != 0 || refs != 0 || checks != 1 || res.Cycles != 1 {
			return fmt.Errorf("0D cost (walks %d, refs %d, checks %d, cycles %d), want (0,0,1,1)",
				walks, refs, checks, res.Cycles)
		}
	case res.L2Hit:
		if walks != 0 || refs != 0 || res.Cycles != 0 {
			return fmt.Errorf("L2 hit with cost (walks %d, refs %d, cycles %d)", walks, refs, res.Cycles)
		}
	default:
		if walks != 1 {
			return fmt.Errorf("translation resolved without L1/L2/0D but %d walks", walks)
		}
		// An access covered by both enabled segments must have been
		// absorbed by the 0D fast path, never the walker.
		if h.virtualized && h.guestSegPages > 0 && h.vmmSegOn && want.GuestCovered && want.VMMCovered {
			return fmt.Errorf("dual-covered access reached the page walker")
		}
		var wc WalkCost
		if h.flat && h.virtualized {
			wc = ExpectWalkFlat(want, h.guestSegPages > 0, h.vmmSegOn, h.nestedLevels)
		} else {
			wc = ExpectWalk(want, h.guestSegPages > 0, h.vmmSegOn, h.virtualized, h.nestedLevels)
		}
		wantCycles := wc.Cycles(refCycles, 1)
		if refs != wc.Refs || checks != wc.Checks || res.Cycles != wantCycles {
			return fmt.Errorf("walk cost (refs %d, checks %d, cycles %d), mode table says (%d, %d, %d)",
				refs, checks, res.Cycles, wc.Refs, wc.Checks, wantCycles)
		}
	}
	return nil
}

// opMap installs a new mapping: a 4K page in the paged region, or (high
// bit of b1) a whole 2M mapping in the huge region.
func (h *Harness) opMap(b1, b2 byte) error {
	if b1&0x80 != 0 {
		slot := uint64(b2) % hugeSlots
		va := uint64(HugeBase) + slot<<addr.PageShift2M
		// A 2M mapping needs the whole slot empty (demand-paged 4K
		// entries may have landed anywhere inside it).
		for p := uint64(0); p < 512; p++ {
			if _, ok := h.model.Guest[va>>addr.PageShift4K+p]; ok {
				return nil
			}
		}
		first, err := h.kernel.Mem.AllocContiguous(512, 512)
		if err != nil {
			return nil // fragmented: legal no-op
		}
		gpa := first << addr.PageShift4K
		if err := h.proc.PT.Map(va, gpa, addr.Page2M); err != nil {
			return fmt.Errorf("mapping 2M at %#x: %v", va, err)
		}
		h.model.MapGuest(va, gpa, addr.Page2M)
		return nil
	}
	idx := (uint64(b1)<<8 | uint64(b2)) % pagedPages
	va := uint64(PagedBase) + idx<<addr.PageShift4K
	if _, ok := h.model.Guest[va>>addr.PageShift4K]; ok {
		return nil
	}
	return h.demandPage(va)
}

// opUnmap removes a paged-region page or a huge-region mapping,
// invalidating both MMUs as the OS would.
func (h *Harness) opUnmap(b1, b2 byte) error {
	var va uint64
	if b1&0x80 != 0 {
		va = uint64(HugeBase) + uint64(b2)%hugeSlots<<addr.PageShift2M
	} else {
		va = uint64(PagedBase) + (uint64(b1)<<8|uint64(b2))%pagedPages<<addr.PageShift4K
	}
	mp, ok := h.model.Guest[va>>addr.PageShift4K]
	if !ok {
		return nil
	}
	base := addr.PageBase(va, mp.Size)
	if err := h.proc.PT.Unmap(base, mp.Size); err != nil {
		return fmt.Errorf("unmapping %#x: %v", base, err)
	}
	for i := uint64(0); i < mp.Size.Bytes()>>addr.PageShift4K; i++ {
		if err := h.kernel.Mem.FreeFrame(mp.Target + i); err != nil {
			return fmt.Errorf("freeing frame %d: %v", mp.Target+i, err)
		}
	}
	for _, m := range h.mmus {
		m.InvalidatePage(base, mp.Size)
	}
	h.model.UnmapGuest(base, mp.Size)
	return nil
}

// opResizeGuestSegment reprograms LIMIT_G to cover b mod (primPages+1)
// pages (0 disables the segment). Growing re-covers demand-paged PTEs,
// which the OS must tear down; escaped pages keep their remappings.
func (h *Harness) opResizeGuestSegment(b byte) error {
	newPages := uint64(b) % (primPages + 1)
	old := h.guestSegPages
	if newPages > old {
		for p := old; p < newPages; p++ {
			va := uint64(PrimBase) + p<<addr.PageShift4K
			vp := va >> addr.PageShift4K
			mp, ok := h.model.Guest[vp]
			if !ok || h.model.EscapedGuest[vp] {
				continue
			}
			if err := h.proc.PT.Unmap(va, addr.Page4K); err != nil {
				return fmt.Errorf("cleaning re-covered page %#x: %v", va, err)
			}
			if err := h.kernel.Mem.FreeFrame(mp.Target); err != nil {
				return err
			}
			h.model.UnmapGuest(va, addr.Page4K)
		}
	}
	h.guestSegPages = newPages
	regs := segment.NewRegisters(PrimBase, h.primGPA, newPages<<addr.PageShift4K)
	for _, m := range h.mmus {
		m.SetGuestSegment(regs)
		m.FlushTLBs()
	}
	h.model.GuestSeg = Segment{Base: regs.Base, Limit: regs.Limit, Offset: regs.Offset}
	return nil
}

// opToggleVMMSegment enables or disables BASE_V/LIMIT_V/OFFSET_V,
// switching between Dual/Guest Direct (and VMM Direct/Base) behaviour.
func (h *Harness) opToggleVMMSegment() {
	h.vmmSegOn = !h.vmmSegOn
	regs := segment.Disabled()
	if h.vmmSegOn {
		regs = h.vmmRegs
	}
	for _, m := range h.mmus {
		m.SetVMMSegment(regs)
		m.FlushTLBs()
	}
	h.model.VMMSeg = Segment{Base: regs.Base, Limit: regs.Limit, Offset: regs.Offset}
}

// opToggleVirtualized switches between two-level and native
// translation, as a VM teardown/boot would.
func (h *Harness) opToggleVirtualized() {
	h.virtualized = !h.virtualized
	for _, m := range h.mmus {
		if h.virtualized {
			m.SetNestedPageTable(h.vm.NPT)
		} else {
			m.SetNestedPageTable(nil)
		}
		m.FlushTLBs()
	}
	h.model.Virtualized = h.virtualized
}

// opEscapeGuest escapes one primary-region page from the guest segment
// (a bad guest page): filter insert on both MMUs, remap through paging
// to a fresh frame, INVLPG. The top selector values aim within ±8
// pages of the live segment limit, so escapes land where a resize can
// immediately flip them between covered and uncovered.
func (h *Harness) opEscapeGuest(b byte) error {
	page := uint64(b) % primPages
	if b >= 0xF0 {
		page = (h.guestSegPages + primPages + uint64(b) - 0xF8) % primPages
	}
	va := uint64(PrimBase) + page<<addr.PageShift4K
	vp := va >> addr.PageShift4K
	if h.model.EscapedGuest[vp] {
		return nil
	}
	f, err := h.kernel.Mem.AllocFrame()
	if err != nil {
		return nil // no healthy frame available: legal no-op
	}
	gpa := f << addr.PageShift4K
	if _, mapped := h.model.Guest[vp]; mapped {
		if err := h.proc.PT.Remap(va, gpa); err != nil {
			return fmt.Errorf("remapping escaped page %#x: %v", va, err)
		}
	} else if err := h.proc.PT.Map(va, gpa, addr.Page4K); err != nil {
		return fmt.Errorf("mapping escaped page %#x: %v", va, err)
	}
	for _, m := range h.mmus {
		m.GuestEscapeFilter().Insert(vp)
		m.InvalidatePage(va, addr.Page4K)
	}
	h.model.MapGuest(va, gpa, addr.Page4K)
	h.model.EscapedGuest[vp] = true
	h.filtersClean = false
	return nil
}

// opEscapeVMM escapes one guest physical page from the VMM segment (a
// bad host page) and migrates its backing to a fresh host frame. With
// huge nested pages the whole containing leaf migrates — the VMM
// cannot split a 2M/1G nested mapping — but only the selected page is
// escaped, exactly as a single hard-faulted host page would be; the
// segment keeps translating the leaf's healthy pages, so both worlds
// stay linear for them and nested for the escaped one.
func (h *Harness) opEscapeVMM(b1, b2 byte) error {
	gp := (uint64(b1)<<8 | uint64(b2)) % (h.guestBytes >> addr.PageShift4K)
	gpa := gp << addr.PageShift4K
	if _, ok := h.model.Nested[gp]; !ok {
		return nil // ballooned away: nothing to migrate
	}
	gbase := addr.PageBase(gpa, h.nestedSize)
	leafFrames := h.nestedSize.Bytes() >> addr.PageShift4K
	first, err := h.host.Mem.AllocContiguous(leafFrames, leafFrames)
	if err != nil {
		return nil
	}
	hpa := first << addr.PageShift4K
	if err := h.vm.NPT.Remap(gbase, hpa); err != nil {
		return fmt.Errorf("migrating gPA %#x: %v", gbase, err)
	}
	for _, m := range h.mmus {
		m.VMMEscapeFilter().Insert(gp)
		m.InvalidateNested()
	}
	h.model.MapNested(gbase, hpa, h.nestedSize)
	h.model.EscapedVMM[gp] = true
	h.filtersClean = false
	return nil
}

// opBalloon pins one free guest frame and hands it to the VMM, which
// unmaps its nested backing; the page is escaped from the VMM segment
// so the segment cannot resurrect the reclaimed frame.
func (h *Harness) opBalloon() error {
	if h.nestedSize != addr.Page4K {
		return nil // Balloon requires 4K nested pages (ErrBadNestedSize)
	}
	f, err := h.kernel.Mem.AllocFrame()
	if err != nil {
		return nil // guest memory exhausted: legal no-op
	}
	if err := h.vm.Balloon([]uint64{f}); err != nil {
		return fmt.Errorf("ballooning frame %d: %v", f, err)
	}
	for _, m := range h.mmus {
		m.VMMEscapeFilter().Insert(f)
		m.InvalidateNested()
	}
	h.model.UnmapNested(f << addr.PageShift4K)
	h.model.EscapedVMM[f] = true
	h.filtersClean = false
	return nil
}

// CheckStats verifies the end-of-run counter identities (CheckIdentities)
// on both MMUs. The pressure MMU's WalkCycles must also be the cost
// identity at its costs (Δ 1 and 7 per nested-TLB hit by default, 18
// per PTE-cache hit, 170 per miss), with X read from its PTE cache; the
// strict MMU's, pricing a hit and a miss alike, cannot tell.
func (h *Harness) CheckStats() error {
	st, x := h.mmus[1].Stats(), h.mmus[1].PTECacheMisses()
	if want := st.SegmentChecks + 7*st.NestedTLBHits + 18*(st.WalkMemRefs-x) + 170*x; st.WalkCycles != want {
		return fmt.Errorf("mmu[1]: WalkCycles %d != cost identity %d", st.WalkCycles, want)
	}
	for i, m := range h.mmus {
		if err := CheckIdentities(m.Stats()); err != nil {
			return fmt.Errorf("mmu[%d]: %w", i, err)
		}
	}
	return nil
}

// CheckIdentities verifies the counter identities every MMU's Stats
// satisfy, here and in the whole-host layer: each access is exactly one
// of L1 hit / L1 miss, each L1 miss resolves as exactly one of 0D, L2
// hit, or page walk, escapes taken ≤ probed, and faults ≤ walks.
func CheckIdentities(st mmu.Stats) error {
	switch {
	case st.Accesses != st.L1Hits+st.L1Misses:
		return fmt.Errorf("%d accesses != %d L1 hits + %d L1 misses", st.Accesses, st.L1Hits, st.L1Misses)
	case st.L1Misses != st.ZeroDWalks+st.L2Hits+st.Walks:
		return fmt.Errorf("%d L1 misses != %d 0D + %d L2 hits + %d walks",
			st.L1Misses, st.ZeroDWalks, st.L2Hits, st.Walks)
	case st.EscapeTaken > st.EscapeProbes:
		return fmt.Errorf("escapes taken %d > probes %d", st.EscapeTaken, st.EscapeProbes)
	case st.GuestFaults+st.NestedFaults > st.Walks:
		return fmt.Errorf("faults %d+%d > walks %d", st.GuestFaults, st.NestedFaults, st.Walks)
	}
	return nil
}
