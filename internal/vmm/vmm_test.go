package vmm

import (
	"testing"

	"vdirect/internal/addr"
	"vdirect/internal/guestos"
	"vdirect/internal/mmu"
	"vdirect/internal/physmem"
	"vdirect/internal/trace"
)

func newHostVM(t *testing.T, hostMB, guestMB uint64, cfg VMConfig) (*Host, *VM) {
	t.Helper()
	h := NewHost(hostMB << 20)
	cfg.MemorySize = guestMB << 20
	if cfg.Name == "" {
		cfg.Name = "vm0"
	}
	if cfg.NestedPageSize == 0 {
		cfg.NestedPageSize = addr.Page4K
	}
	vm, err := h.CreateVM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h, vm
}

func TestCreateVMBacksAllMemory(t *testing.T) {
	_, vm := newHostVM(t, 128, 16, VMConfig{})
	// Every guest page must translate.
	for gpa := uint64(0); gpa < vm.GuestMem.Size(); gpa += addr.PageSize4K {
		if _, _, ok := vm.NPT.Translate(gpa); !ok {
			t.Fatalf("gPA %#x unbacked", gpa)
		}
	}
	if vm.BackedFrames() != vm.GuestMem.Size()>>12 {
		t.Errorf("BackedFrames = %d", vm.BackedFrames())
	}
}

func TestCreateVM2MNestedPages(t *testing.T) {
	_, vm := newHostVM(t, 128, 16, VMConfig{NestedPageSize: addr.Page2M})
	hpa, s, ok := vm.NPT.Translate(0x300000)
	if !ok || s != addr.Page2M {
		t.Fatalf("2M nested mapping missing: %v %v", s, ok)
	}
	if hpa%addr.PageSize2M != 0x100000 {
		t.Errorf("2M mapping misaligned: %#x", hpa)
	}
}

func TestContiguousBackingAndVMMSegment(t *testing.T) {
	_, vm := newHostVM(t, 128, 16, VMConfig{ContiguousBacking: true})
	seg, err := vm.TryEnableVMMSegment()
	if err != nil {
		t.Fatal(err)
	}
	if !seg.Enabled() || seg.Range().Size != 16<<20 {
		t.Errorf("segment = %v", seg)
	}
	// Segment translation must agree with the nested page table.
	for _, gpa := range []uint64{0, 0x12345, 0xabc000, 16<<20 - 1} {
		hpa, _, ok := vm.NPT.Translate(addr.PageBase(gpa, addr.Page4K))
		if !ok {
			t.Fatalf("gPA %#x unbacked", gpa)
		}
		if seg.Translate(addr.PageBase(gpa, addr.Page4K)) != hpa {
			t.Errorf("segment and nPT disagree at gPA %#x", gpa)
		}
	}
	vm.DisableVMMSegment()
	if vm.VMMSegment().Enabled() {
		t.Error("DisableVMMSegment left registers live")
	}
}

func TestVMMSegmentFragmentedHostFails(t *testing.T) {
	h := NewHost(64 << 20)
	r := trace.NewRand(1)
	h.Mem.FragmentRandomly(0.5, r.Uint64n)
	if _, err := h.CreateVM(VMConfig{
		Name: "vm", MemorySize: 16 << 20,
		NestedPageSize: addr.Page4K, ContiguousBacking: true,
	}); err != ErrHostFragmented {
		t.Fatalf("err = %v, want ErrHostFragmented", err)
	}
}

func TestCompactionEnablesVMMSegment(t *testing.T) {
	// Table III transition: fragmented host → chunked VM → compaction →
	// VMM segment.
	h := NewHost(128 << 20)
	r := trace.NewRand(2)
	taken := h.Mem.FragmentRandomly(0.3, r.Uint64n)
	vm, err := h.CreateVM(VMConfig{Name: "vm", MemorySize: 32 << 20, NestedPageSize: addr.Page4K})
	if err != nil {
		t.Fatal(err)
	}
	// Free the fragmentation pages, leaving scattered holes; the VM's
	// chunked backing is interleaved with them.
	for _, f := range taken {
		h.Mem.FreeFrame(f)
	}
	if _, err := vm.TryEnableVMMSegment(); err == nil {
		// Occasionally a large free run exists; if so the test cannot
		// exercise the compaction path. Force fragmentation harder.
		t.Skip("host accidentally had a contiguous run")
	}
	moved, err := h.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("compaction moved nothing")
	}
	seg, err := vm.TryEnableVMMSegment()
	if err != nil {
		t.Fatalf("VMM segment after compaction: %v", err)
	}
	// Verify coherence after the relocations.
	for gpa := uint64(0); gpa < vm.GuestMem.Size(); gpa += addr.PageSize4K {
		hpa, _, ok := vm.NPT.Translate(gpa)
		if !ok || seg.Translate(gpa) != hpa {
			t.Fatalf("post-compaction mismatch at gPA %#x", gpa)
		}
	}
}

func TestCompactRepairsNestedMappings(t *testing.T) {
	h := NewHost(64 << 20)
	r := trace.NewRand(3)
	taken := h.Mem.FragmentRandomly(0.4, r.Uint64n)
	vm, err := h.CreateVM(VMConfig{Name: "vm", MemorySize: 8 << 20, NestedPageSize: addr.Page4K})
	if err != nil {
		t.Fatal(err)
	}
	// Snapshot gPA → content identity via frame numbers.
	before := map[uint64]uint64{}
	vm.NPT.VisitLeaves(func(gpa, hpa uint64, s addr.PageSize) bool {
		before[gpa] = gpa // identity marker
		return true
	})
	for _, f := range taken {
		h.Mem.FreeFrame(f)
	}
	if _, err := h.Compact(); err != nil {
		t.Fatal(err)
	}
	// All gPAs still translate, and every backed frame is allocated.
	count := 0
	vm.NPT.VisitLeaves(func(gpa, hpa uint64, s addr.PageSize) bool {
		count++
		if !h.Mem.IsAllocated(physmem.AddrToFrame(hpa)) {
			t.Errorf("gPA %#x maps to unallocated frame %#x", gpa, hpa)
			return false
		}
		return true
	})
	if count != len(before) {
		t.Errorf("mappings lost: %d -> %d", len(before), count)
	}
}

func TestSlotLayout(t *testing.T) {
	// Small VM: one slot. Large VM: split at 4GB (Figure 10).
	_, small := newHostVM(t, 64, 16, VMConfig{})
	if len(small.Slots) != 1 {
		t.Errorf("small VM slots = %d", len(small.Slots))
	}
	h := NewHost(6 << 30)
	big, err := h.CreateVM(VMConfig{Name: "big", MemorySize: 5 << 30, NestedPageSize: addr.Page1G})
	if err != nil {
		t.Fatal(err)
	}
	if len(big.Slots) != 2 {
		t.Fatalf("big VM slots = %d, want 2", len(big.Slots))
	}
	if big.Slots[1].GPA.Start != addr.IOGapEnd {
		t.Errorf("second slot starts %#x", big.Slots[1].GPA.Start)
	}
	// The slots keep the gPA layout in host virtual space.
	if d := big.Slots[1].HVA - big.Slots[0].HVA; d != addr.IOGapEnd {
		t.Errorf("slot HVA layout wrong: second slot %#x past the first", d)
	}
}

func TestBalloonHotplugRoundTrip(t *testing.T) {
	h, vm := newHostVM(t, 128, 32, VMConfig{})
	hostFree := h.Mem.FreeFrames()
	// Balloon out 1024 scattered guest frames.
	frames := make([]uint64, 0, 1024)
	for i := uint64(0); i < 1024; i++ {
		frames = append(frames, i*7%8192)
	}
	seen := map[uint64]bool{}
	uniq := frames[:0]
	for _, f := range frames {
		if !seen[f] {
			seen[f] = true
			uniq = append(uniq, f)
		}
	}
	if err := vm.Balloon(uniq); err != nil {
		t.Fatal(err)
	}
	if h.Mem.FreeFrames() != hostFree+uint64(len(uniq)) {
		t.Errorf("host frames not reclaimed: %d -> %d", hostFree, h.Mem.FreeFrames())
	}
	// Hotplug the same amount back.
	tablePagesBefore := vm.NPT.TablePages()
	r, err := vm.HotplugAdd(uint64(len(uniq)) << 12)
	if err != nil {
		t.Fatal(err)
	}
	if r.Start != 32<<20 {
		t.Errorf("hotplug range = %v", r)
	}
	// Backing frames balance exactly; the nested table may have grown
	// by a few pages to map the new region.
	tableGrowth := vm.NPT.TablePages() - tablePagesBefore
	if h.Mem.FreeFrames()+tableGrowth != hostFree {
		t.Errorf("host frames after round trip: %d (+%d table pages) != %d",
			h.Mem.FreeFrames(), tableGrowth, hostFree)
	}
	// New range fully backed.
	for gpa := r.Start; gpa < r.End(); gpa += addr.PageSize4K {
		if _, _, ok := vm.NPT.Translate(gpa); !ok {
			t.Fatalf("hotplugged gPA %#x unbacked", gpa)
		}
	}
	// Remove it again: all backing frames come back (table pages for the
	// emptied region are also reclaimed by the page table).
	freeBeforeRemove := h.Mem.FreeFrames()
	if err := vm.HotplugRemove(r); err != nil {
		t.Fatal(err)
	}
	if h.Mem.FreeFrames() < freeBeforeRemove+uint64(len(uniq)) {
		t.Error("HotplugRemove did not free host frames")
	}
}

func TestBalloonRequires4KNested(t *testing.T) {
	_, vm := newHostVM(t, 128, 16, VMConfig{NestedPageSize: addr.Page2M})
	if err := vm.Balloon([]uint64{0}); err != ErrBadNestedSize {
		t.Errorf("err = %v", err)
	}
	if _, err := vm.HotplugAdd(1 << 20); err != ErrBadNestedSize {
		t.Errorf("err = %v", err)
	}
	if err := vm.HotplugRemove(addr.Range{Size: 1 << 20}); err != ErrBadNestedSize {
		t.Errorf("err = %v", err)
	}
}

func TestVMImplementsGuestOSBackend(t *testing.T) {
	// End-to-end self-ballooning through the real VMM backend.
	h, vm := newHostVM(t, 256, 32, VMConfig{})
	_ = h
	kernel := guestos.NewKernel(vm.GuestMem, vm)
	r := trace.NewRand(5)
	kernel.Mem.FragmentRandomly(0.6, r.Uint64n)
	p, err := kernel.CreateProcess("bigmem")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.CreatePrimaryRegion(8 << 20); err != guestos.ErrFragmented {
		t.Fatalf("precondition: %v", err)
	}
	if _, err := kernel.SelfBalloon(8<<20, r.Uint64n); err != nil {
		t.Fatal(err)
	}
	if err := p.BackPrimaryRegion(); err != nil {
		t.Fatalf("segment after self-balloon: %v", err)
	}
	// Every gPA the new segment covers must be backed in the nPT.
	segr := p.Seg
	for gva := segr.Base; gva < segr.Limit; gva += addr.PageSize4K {
		gpa := segr.Translate(gva)
		if _, _, ok := vm.NPT.Translate(gpa); !ok {
			t.Fatalf("segment gPA %#x unbacked in nPT", gpa)
		}
	}
}

func TestPageSharingSavesDuplicates(t *testing.T) {
	h := NewHost(256 << 20)
	vmA, err := h.CreateVM(VMConfig{Name: "a", MemorySize: 8 << 20, NestedPageSize: addr.Page4K})
	if err != nil {
		t.Fatal(err)
	}
	vmB, err := h.CreateVM(VMConfig{Name: "b", MemorySize: 8 << 20, NestedPageSize: addr.Page4K})
	if err != nil {
		t.Fatal(err)
	}
	// 64 identical "OS code" pages in both VMs, rest unique.
	for i := uint64(0); i < 64; i++ {
		vmA.SetPageContent(i<<12, 0xC0DE+i)
		vmB.SetPageContent(i<<12, 0xC0DE+i)
	}
	for i := uint64(64); i < 128; i++ {
		vmA.SetPageContent(i<<12, 0xAAAA0000+i)
		vmB.SetPageContent(i<<12, 0xBBBB0000+i)
	}
	freeBefore := h.Mem.FreeFrames()
	rep, err := h.ScanAndShare([]*VM{vmA, vmB})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SavedFrames != 64 {
		t.Errorf("SavedFrames = %d, want 64", rep.SavedFrames)
	}
	if h.Mem.FreeFrames() != freeBefore+64 {
		t.Errorf("host frames not actually saved")
	}
	// Shared pages now alias the same host frame.
	hA, _, _ := vmA.NPT.Translate(0x1000)
	hB, _, _ := vmB.NPT.Translate(0x1000)
	if hA != hB {
		t.Error("duplicate pages not aliased")
	}
	if rep.SavedFraction() <= 0 {
		t.Error("SavedFraction = 0")
	}
}

func TestPageSharingSkipsSegmentCovered(t *testing.T) {
	h := NewHost(256 << 20)
	vmA, err := h.CreateVM(VMConfig{Name: "a", MemorySize: 8 << 20,
		NestedPageSize: addr.Page4K, ContiguousBacking: true})
	if err != nil {
		t.Fatal(err)
	}
	vmB, err := h.CreateVM(VMConfig{Name: "b", MemorySize: 8 << 20, NestedPageSize: addr.Page4K})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vmA.TryEnableVMMSegment(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 64; i++ {
		vmA.SetPageContent(i<<12, 0xC0DE+i)
		vmB.SetPageContent(i<<12, 0xC0DE+i)
	}
	rep, err := h.ScanAndShare([]*VM{vmA, vmB})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SavedFrames != 0 {
		t.Errorf("segment-covered pages were shared: %d", rep.SavedFrames)
	}
}

func TestCoWBreak(t *testing.T) {
	h := NewHost(256 << 20)
	vmA, _ := h.CreateVM(VMConfig{Name: "a", MemorySize: 4 << 20, NestedPageSize: addr.Page4K})
	vmB, _ := h.CreateVM(VMConfig{Name: "b", MemorySize: 4 << 20, NestedPageSize: addr.Page4K})
	vmA.SetPageContent(0x3000, 42)
	vmB.SetPageContent(0x5000, 42)
	if _, err := h.ScanAndShare([]*VM{vmA, vmB}); err != nil {
		t.Fatal(err)
	}
	hA, _, _ := vmA.NPT.Translate(0x3000)
	hB, _, _ := vmB.NPT.Translate(0x5000)
	if hA != hB {
		t.Fatal("pages not shared")
	}
	broke, err := vmB.WriteFault(0x5123)
	if err != nil {
		t.Fatal(err)
	}
	if !broke {
		t.Fatal("write to shared page did not break CoW")
	}
	hB2, _, _ := vmB.NPT.Translate(0x5000)
	if hB2 == hA {
		t.Error("CoW break left aliasing")
	}
	if vmB.CoWBreaks() != 1 {
		t.Errorf("CoWBreaks = %d", vmB.CoWBreaks())
	}
	// Writing a private page is free.
	broke, err = vmB.WriteFault(0x7000)
	if err != nil || broke {
		t.Errorf("private write: broke=%v err=%v", broke, err)
	}
}

func TestShadowContext(t *testing.T) {
	h, vm := newHostVM(t, 128, 16, VMConfig{})
	_ = h
	kernel := guestos.NewKernel(vm.GuestMem, vm)
	p, _ := kernel.CreateProcess("app")
	base, _ := p.MMap(1 << 20)
	if err := p.HandleFault(base); err != nil {
		t.Fatal(err)
	}
	sh, err := vm.NewShadowContext()
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.SyncPage(p.PT, base+0x123); err != nil {
		t.Fatal(err)
	}
	// Shadow translation equals gPT∘nPT.
	hpaShadow, _, ok := sh.Shadow.Translate(base + 0x123)
	if !ok {
		t.Fatal("shadow entry missing")
	}
	gpa, _, _ := p.PT.Translate(base + 0x123)
	hpaDirect, _, _ := vm.NPT.Translate(gpa)
	if hpaShadow != hpaDirect {
		t.Errorf("shadow %#x != composed %#x", hpaShadow, hpaDirect)
	}
	exits, cycles := sh.Exits()
	if exits != 1 || cycles != DefaultExitCycles {
		t.Errorf("exits=%d cycles=%d", exits, cycles)
	}
	// Invalidation exits too; missing entries are fine.
	if err := sh.InvalidatePage(base, addr.Page4K); err != nil {
		t.Fatal(err)
	}
	if err := sh.InvalidatePage(base+0x40000, addr.Page4K); err != nil {
		t.Fatal(err)
	}
	exits, _ = sh.Exits()
	if exits != 3 {
		t.Errorf("exits = %d, want 3", exits)
	}
	// Sync of an unmapped gVA reports an error.
	if err := sh.SyncPage(p.PT, 0xdeadbeef000); err == nil {
		t.Error("sync of unmapped gVA succeeded")
	}
}

func TestCapabilitiesTableII(t *testing.T) {
	caps := AllCapabilities()
	if len(caps) != 4 {
		t.Fatalf("Table II has %d columns", len(caps))
	}
	checks := map[mmu.Mode]struct {
		dims   string
		refs   int
		checks int
	}{
		mmu.ModeBaseVirtualized: {"2D", 24, 0},
		mmu.ModeDualDirect:      {"0D", 0, 1},
		mmu.ModeVMMDirect:       {"1D", 4, 5},
		mmu.ModeGuestDirect:     {"1D", 4, 1},
	}
	for _, c := range caps {
		want := checks[c.Mode]
		if c.WalkDims != want.dims || c.MemAccesses != want.refs || c.BaseBoundChecks != want.checks {
			t.Errorf("%v: dims=%s refs=%d checks=%d", c.Mode, c.WalkDims, c.MemAccesses, c.BaseBoundChecks)
		}
	}
	// Spot-check the service rows.
	gd := CapabilitiesOf(mmu.ModeGuestDirect)
	if gd.PageSharing != Unrestricted || gd.VMMSwapping != Unrestricted || gd.GuestSwapping != Limited {
		t.Errorf("Guest Direct services wrong: %+v", gd)
	}
	vd := CapabilitiesOf(mmu.ModeVMMDirect)
	if vd.GuestSwapping != Unrestricted || vd.PageSharing != Limited || vd.VMMMods != true || vd.GuestOSMods {
		t.Errorf("VMM Direct services wrong: %+v", vd)
	}
	if Unrestricted.String() != "unrestricted" || Limited.String() != "limited" {
		t.Error("Support strings wrong")
	}
}

// TestCapabilitiesFlatNested covers the post-paper column: reachable by
// name, numeric cells derived from the scheme's closed-form cost, and
// absent from the paper's four-column table.
func TestCapabilitiesFlatNested(t *testing.T) {
	fn := CapabilitiesOf(mmu.ModeFlatNested)
	if fn.WalkDims != "2D-flat" || fn.MemAccesses != 12 || fn.BaseBoundChecks != 0 {
		t.Errorf("FlatNested: dims=%s refs=%d checks=%d, want 2D-flat/12/0",
			fn.WalkDims, fn.MemAccesses, fn.BaseBoundChecks)
	}
	if !fn.VMMMods || fn.GuestOSMods {
		t.Errorf("FlatNested mods wrong: %+v", fn)
	}
	if len(AllCapabilities()) != 4 {
		t.Error("AllCapabilities grew beyond the paper's four columns")
	}
}

func TestCapabilitiesPanicsForNative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for native mode")
		}
	}()
	CapabilitiesOf(mmu.ModeNative)
}

func TestPlanModesTableIII(t *testing.T) {
	cases := []struct {
		class   WorkloadClass
		frag    FragState
		initial mmu.Mode
		final   mmu.Mode
		ntech   int
	}{
		{BigMemory, FragState{HostFragmented: true}, mmu.ModeGuestDirect, mmu.ModeDualDirect, 1},
		{BigMemory, FragState{GuestFragmented: true}, mmu.ModeDualDirect, mmu.ModeDualDirect, 1},
		{BigMemory, FragState{HostFragmented: true, GuestFragmented: true}, mmu.ModeGuestDirect, mmu.ModeDualDirect, 2},
		{BigMemory, FragState{}, mmu.ModeDualDirect, mmu.ModeDualDirect, 0},
		{Compute, FragState{HostFragmented: true}, mmu.ModeBaseVirtualized, mmu.ModeVMMDirect, 1},
		{Compute, FragState{GuestFragmented: true}, mmu.ModeVMMDirect, mmu.ModeVMMDirect, 0},
		{Compute, FragState{HostFragmented: true, GuestFragmented: true}, mmu.ModeBaseVirtualized, mmu.ModeVMMDirect, 1},
		{Compute, FragState{}, mmu.ModeVMMDirect, mmu.ModeVMMDirect, 0},
	}
	for _, c := range cases {
		p := PlanModes(c.class, c.frag)
		if p.Initial != c.initial || p.Final != c.final || len(p.Techniques) != c.ntech {
			t.Errorf("%v/%+v: got %+v", c.class, c.frag, p)
		}
	}
	if BigMemory.String() != "big-memory" || Compute.String() != "compute" {
		t.Error("class strings wrong")
	}
}
