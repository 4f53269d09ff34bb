package guestos

import (
	"errors"
	"testing"

	"vdirect/internal/addr"
	"vdirect/internal/physmem"
	"vdirect/internal/trace"
)

// fakeVMM implements VMMBackend over the guest memory itself.
type fakeVMM struct {
	mem       *physmem.Memory
	ballooned []uint64
	removed   []addr.Range
	added     []addr.Range
	failAdd   bool
}

func (f *fakeVMM) Balloon(frames []uint64) error {
	f.ballooned = append(f.ballooned, frames...)
	return nil
}

func (f *fakeVMM) HotplugAdd(size uint64) (addr.Range, error) {
	if f.failAdd {
		return addr.Range{}, errors.New("fake: no host memory")
	}
	r, err := f.mem.Grow(size)
	if err != nil {
		return addr.Range{}, err
	}
	f.added = append(f.added, r)
	return r, nil
}

func (f *fakeVMM) HotplugRemove(r addr.Range) error {
	f.removed = append(f.removed, r)
	return nil
}

func newKernel(t *testing.T, sizeMB uint64, gap bool) (*Kernel, *fakeVMM) {
	t.Helper()
	mem := physmem.New(physmem.Config{Name: "guest", Size: sizeMB << 20, IOGap: gap})
	vmm := &fakeVMM{mem: mem}
	return NewKernel(mem, vmm), vmm
}

func TestCreateProcessAndMMap(t *testing.T) {
	k, _ := newKernel(t, 64, false)
	p, err := k.CreateProcess("app")
	if err != nil {
		t.Fatal(err)
	}
	base, err := p.MMap(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if base%addr.PageSize2M != 0 {
		t.Errorf("mmap base %#x not 2M aligned", base)
	}
	base2, _ := p.MMap(1 << 20)
	if base2 <= base {
		t.Error("second mmap overlaps first")
	}
	if len(p.Regions()) != 2 {
		t.Errorf("regions = %d", len(p.Regions()))
	}
	if len(k.Processes()) != 1 {
		t.Error("process not registered")
	}
}

func TestDemandPaging(t *testing.T) {
	k, _ := newKernel(t, 64, false)
	p, _ := k.CreateProcess("app")
	base, _ := p.MMap(1 << 20)
	if err := p.HandleFault(base + 0x5123); err != nil {
		t.Fatal(err)
	}
	gpa, s, ok := p.PT.Translate(base + 0x5123)
	if !ok || s != addr.Page4K {
		t.Fatal("fault did not map page")
	}
	if gpa&0xfff != 0x123 {
		t.Errorf("offset lost: %#x", gpa)
	}
	// Fault outside any region is rejected.
	if err := p.HandleFault(0x10); err != ErrOutsideVA {
		t.Errorf("wild fault err = %v", err)
	}
}

func TestPrimaryRegionBacked(t *testing.T) {
	k, _ := newKernel(t, 64, false)
	p, _ := k.CreateProcess("bigmem")
	r, err := p.CreatePrimaryRegion(16 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if r.Start%addr.PageSize1G != 0 {
		t.Errorf("primary region base %#x not 1G aligned", r.Start)
	}
	if !p.Seg.Enabled() {
		t.Fatal("segment not programmed")
	}
	if p.Seg.Range() != r {
		t.Errorf("segment covers %v, want %v", p.Seg.Range(), r)
	}
	// The backing gPA range must really be allocated.
	gpaBase := p.Seg.Translate(r.Start)
	if !k.Mem.IsAllocated(physmem.AddrToFrame(gpaBase)) {
		t.Error("backing frames not allocated")
	}
	if pr := p.PrimaryRegion(); pr != r {
		t.Errorf("PrimaryRegion = %v", pr)
	}
}

func TestPrimaryRegionFragmented(t *testing.T) {
	k, _ := newKernel(t, 32, false)
	r := trace.NewRand(1)
	k.Mem.FragmentRandomly(0.6, r.Uint64n)
	p, _ := k.CreateProcess("bigmem")
	_, err := p.CreatePrimaryRegion(8 << 20)
	if err != ErrFragmented {
		t.Fatalf("err = %v, want ErrFragmented", err)
	}
	if p.Seg.Enabled() {
		t.Error("segment programmed despite fragmentation")
	}
	// Virtual region still exists: paging path works.
	if err := p.HandleFault(p.PrimaryRegion().Start); err != nil {
		t.Errorf("paging fallback fault failed: %v", err)
	}
}

func TestSelfBallooning(t *testing.T) {
	// The Figure 9 scenario: fragmented guest memory, then self-balloon
	// produces a contiguous range without compaction.
	k, vmm := newKernel(t, 32, false)
	r := trace.NewRand(2)
	k.Mem.FragmentRandomly(0.6, r.Uint64n)
	p, _ := k.CreateProcess("bigmem")
	if _, err := p.CreatePrimaryRegion(8 << 20); err != ErrFragmented {
		t.Fatalf("precondition: %v", err)
	}
	freeBefore := k.Mem.FreeFrames()
	newRange, err := k.SelfBalloon(8<<20, r.Uint64n)
	if err != nil {
		t.Fatal(err)
	}
	if newRange.Size != 8<<20 {
		t.Errorf("hotplugged %v", newRange)
	}
	// Memory-neutral: ballooned out exactly what was added.
	if got := uint64(len(vmm.ballooned)) << 12; got != 8<<20 {
		t.Errorf("ballooned %d bytes, want %d", got, 8<<20)
	}
	if k.Mem.FreeFrames() != freeBefore {
		t.Errorf("free frames changed: %d -> %d", freeBefore, k.Mem.FreeFrames())
	}
	// The new range must back a segment now.
	if err := p.BackPrimaryRegion(); err != nil {
		t.Fatalf("BackPrimaryRegion after self-balloon: %v", err)
	}
	if !p.Seg.Enabled() {
		t.Error("segment still disabled")
	}
	if got := k.BalloonedFrames(); uint64(len(got))<<12 != 8<<20 {
		t.Errorf("BalloonedFrames = %d", len(got))
	}
}

func TestSelfBalloonInsufficientFree(t *testing.T) {
	k, _ := newKernel(t, 8, false)
	r := trace.NewRand(3)
	k.Mem.FragmentRandomly(0.95, r.Uint64n)
	if _, err := k.SelfBalloon(16<<20, r.Uint64n); err == nil {
		t.Fatal("self-balloon succeeded without free memory")
	}
}

func TestSelfBalloonNoBackend(t *testing.T) {
	mem := physmem.New(physmem.Config{Name: "native", Size: 8 << 20})
	k := NewKernel(mem, nil)
	if _, err := k.SelfBalloon(1<<20, nil); err != ErrBackendMissing {
		t.Errorf("err = %v", err)
	}
	if _, err := k.ReclaimIOGap(256 << 20); err != ErrBackendMissing {
		t.Errorf("err = %v", err)
	}
}

func TestReclaimIOGap(t *testing.T) {
	// 5GB guest with I/O gap: 3GB low + 1GB high usable. After
	// reclamation with 256MB keep: low usable = 256MB, and a new
	// contiguous high range of (3GB-256MB) appears at the top.
	k, vmm := newKernel(t, 5<<10, true)
	usableBefore := k.Mem.UsableFrames()
	newRange, err := k.ReclaimIOGap(256 << 20)
	if err != nil {
		t.Fatal(err)
	}
	wantSize := uint64(3<<30) - 256<<20
	if newRange.Size != wantSize {
		t.Errorf("new range size = %#x, want %#x", newRange.Size, wantSize)
	}
	if newRange.Start != 5<<30 {
		t.Errorf("new range start = %#x, want end of old space", newRange.Start)
	}
	if k.Mem.UsableFrames() != usableBefore {
		t.Errorf("usable frames changed: %d -> %d", usableBefore, k.Mem.UsableFrames())
	}
	// The largest free run should now be [4GB, end): 1GB original high
	// memory + the reclaimed extension, contiguous.
	start, length := k.Mem.LargestFreeRun()
	if physmem.FrameToAddr(start) != addr.IOGapEnd {
		t.Errorf("largest run starts %#x, want %#x", physmem.FrameToAddr(start), addr.IOGapEnd)
	}
	wantRun := (uint64(1)<<30 + wantSize) >> 12
	if length != wantRun {
		t.Errorf("largest run = %d frames, want %d", length, wantRun)
	}
	if k.KernelReserve().Size != 256<<20 {
		t.Errorf("kernel reserve = %v", k.KernelReserve())
	}
	if len(vmm.removed) != 1 || len(vmm.added) != 1 {
		t.Errorf("VMM saw %d removes, %d adds", len(vmm.removed), len(vmm.added))
	}
}

func TestReclaimIOGapKeepTooLarge(t *testing.T) {
	k, _ := newKernel(t, 5<<10, true)
	if _, err := k.ReclaimIOGap(3 << 30); err == nil {
		t.Fatal("keep >= gap start accepted")
	}
}

func TestEmulatedSegmentFaultPath(t *testing.T) {
	// §VI.B: with emulation, faults inside the segment install computed
	// PTEs; the translation equals what hardware would produce.
	k, _ := newKernel(t, 64, false)
	p, _ := k.CreateProcess("emul")
	p.EmulateSegment = true
	r, err := p.CreatePrimaryRegion(4 << 20)
	if err != nil {
		t.Fatal(err)
	}
	va := r.Start + 0x12345
	if err := p.HandleFault(va); err != nil {
		t.Fatal(err)
	}
	gpa, _, ok := p.PT.Translate(va)
	if !ok {
		t.Fatal("emulated fault did not map")
	}
	if gpa != p.Seg.Translate(va) {
		t.Errorf("emulated PTE %#x != segment translation %#x", gpa, p.Seg.Translate(va))
	}
	// Hardware mode: such a fault is a bug.
	p.EmulateSegment = false
	if err := p.HandleFault(r.Start + 0x20000); err == nil {
		t.Error("hardware-mode in-segment fault not rejected")
	}
}

func TestPrefault(t *testing.T) {
	k, _ := newKernel(t, 64, false)
	p, _ := k.CreateProcess("app")
	base, _ := p.MMap(64 << 10)
	if err := p.Prefault(addr.Range{Start: base, Size: 64 << 10}); err != nil {
		t.Fatal(err)
	}
	for va := base; va < base+64<<10; va += 4096 {
		if _, _, ok := p.PT.Translate(va); !ok {
			t.Fatalf("page %#x not prefaulted", va)
		}
	}
	// Idempotent.
	if err := p.Prefault(addr.Range{Start: base, Size: 64 << 10}); err != nil {
		t.Fatal(err)
	}
	// Prefault over a hardware segment installs nothing.
	ps, _ := k.CreateProcess("seg")
	r, err := ps.CreatePrimaryRegion(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.Prefault(r); err != nil {
		t.Fatal(err)
	}
	if ps.PT.Mappings() != 0 {
		t.Error("prefault installed PTEs under segment hardware")
	}
}

func TestEscapeBadPages(t *testing.T) {
	k, _ := newKernel(t, 64, false)
	p, _ := k.CreateProcess("bigmem")
	r, err := p.CreatePrimaryRegion(4 << 20)
	if err != nil {
		t.Fatal(err)
	}
	segBase := p.Seg.Translate(r.Start)
	bad := []uint64{segBase + 0x3000, segBase + 0x10000}
	var filtered []uint64
	remaps, err := p.EscapeBadPages(bad, func(pfn uint64) { filtered = append(filtered, pfn) })
	if err != nil {
		t.Fatal(err)
	}
	if len(remaps) != 2 || len(filtered) != 2 {
		t.Fatalf("remaps=%d filtered=%d", len(remaps), len(filtered))
	}
	for _, rm := range remaps {
		if !k.Mem.IsBad(physmem.AddrToFrame(rm.OldGPA)) {
			t.Error("bad frame not marked")
		}
		gpa, _, ok := p.PT.Translate(rm.GVA)
		if !ok || gpa != rm.NewGPA {
			t.Errorf("escaped page not remapped: %#x -> %#x (want %#x)", rm.GVA, gpa, rm.NewGPA)
		}
		if rm.NewGPA == rm.OldGPA {
			t.Error("remap points at the bad frame")
		}
	}
	// Without a segment the call is rejected.
	p2, _ := k.CreateProcess("noseg")
	if _, err := p2.EscapeBadPages(bad, func(uint64) {}); err != ErrNoPrimary {
		t.Errorf("err = %v", err)
	}
}

func TestHotplugAddFailureSurfaces(t *testing.T) {
	k, vmm := newKernel(t, 32, false)
	vmm.failAdd = true
	r := trace.NewRand(4)
	if _, err := k.SelfBalloon(4<<20, r.Uint64n); err == nil {
		t.Fatal("self-balloon swallowed backend failure")
	}
}
