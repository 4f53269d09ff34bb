package vdirect

import (
	"testing"

	"vdirect/internal/addr"
	"vdirect/internal/guestos"
	"vdirect/internal/mmu"
	"vdirect/internal/physmem"
	"vdirect/internal/trace"
	"vdirect/internal/vmm"
)

// TestGuardPageTripsThroughMMU exercises the §V guard-page extension
// end to end: an armed page inside a Dual Direct segment escapes to
// paging, finds no PTE, and faults — which the kernel recognizes as a
// guard hit instead of demand-paging it.
func TestGuardPageTripsThroughMMU(t *testing.T) {
	s, err := NewSystem(Config{Mode: DualDirect, GuestMemory: 128 << 20})
	if err != nil {
		t.Fatal(err)
	}
	base, err := s.CreatePrimaryRegion(16 << 20)
	if err != nil {
		t.Fatal(err)
	}
	guard := base + 0x200000
	err = s.Process().GuardPages([]uint64{guard}, func(vaPFN, paPFN uint64) {
		// A guard on a guest page uses the guest-level filter (the §V
		// both-levels extension), so the escape lands in the guest
		// page table — which has no PTE, tripping the guard.
		s.MMU().GuestEscapeFilter().Insert(vaPFN)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Non-guard neighbours translate 0D as usual.
	if _, _, err := s.Access(guard + 0x1000); err != nil {
		t.Fatal(err)
	}
	// The guard page faults — and the raw MMU fault (not the Access
	// façade, which would demand-page) is recognizable as a guard hit.
	_, fault := s.MMU().Translate(guard + 4)
	if fault == nil {
		t.Fatal("guard page translated")
	}
	if !s.Process().GuardPageHit(guard + 4) {
		t.Error("kernel did not recognize the guard hit")
	}
}

// TestEndToEndModeTransition walks a VM through the full Table III
// big-memory path: fragmented guest AND host, self-ballooning to get a
// guest segment (Guest Direct), then host compaction to add the VMM
// segment (Dual Direct) — with translations verified at each stage.
func TestEndToEndModeTransition(t *testing.T) {
	host := vmm.NewHost(512 << 20)

	// Fragment the host before the VM exists.
	junk := host.Mem.FragmentRandomly(0.3, seededPicker(5))
	vm, err := host.CreateVM(vmm.VMConfig{
		Name: "vm", MemorySize: 128 << 20, NestedPageSize: addr.Page4K,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range junk {
		if i%2 == 1 {
			host.Mem.FreeFrame(f)
		}
	}
	kernel := guestos.NewKernel(vm.GuestMem, vm)
	kernel.Mem.FragmentRandomly(0.5, seededPicker(6))
	proc, err := kernel.CreateProcess("bigmem")
	if err != nil {
		t.Fatal(err)
	}

	hw := mmu.New(mmu.Config{})
	hw.SetGuestPageTable(proc.PT)
	hw.SetNestedPageTable(vm.NPT)
	if hw.Mode() != mmu.ModeBaseVirtualized {
		t.Fatalf("stage 0 mode = %v", hw.Mode())
	}

	// Stage 1: guest fragmented → primary region backing fails →
	// self-balloon → Guest Direct.
	if err := proc.CreatePrimaryRegionAt(addr.Range{Start: 1 << 30, Size: 32 << 20}); err != guestos.ErrFragmented {
		t.Fatalf("stage 1 precondition: %v", err)
	}
	if _, err := kernel.SelfBalloon(32<<20, seededPicker(7)); err != nil {
		t.Fatal(err)
	}
	if err := proc.BackPrimaryRegion(); err != nil {
		t.Fatal(err)
	}
	hw.SetGuestSegment(proc.Seg)
	if hw.Mode() != mmu.ModeGuestDirect {
		t.Fatalf("stage 1 mode = %v", hw.Mode())
	}
	res, fault := hw.Translate(1<<30 + 0x5123)
	if fault != nil {
		t.Fatalf("stage 1 translate: %v", fault)
	}
	wantGPA := proc.Seg.Translate(1<<30 + 0x5123)
	if gotHPA, _, ok := vm.NPT.Translate(wantGPA); !ok || gotHPA != res.HPA {
		t.Fatalf("stage 1 wrong translation: %#x", res.HPA)
	}

	// Stage 2: host fragmented → VMM segment fails → compaction →
	// Dual Direct.
	if _, err := vm.TryEnableVMMSegment(); err == nil {
		t.Skip("host accidentally had a contiguous run; compaction path not exercised")
	}
	if _, err := host.Compact(); err != nil {
		t.Fatal(err)
	}
	hw.InvalidateNested() // compaction remapped frames
	seg, err := vm.TryEnableVMMSegment()
	if err != nil {
		t.Fatal(err)
	}
	hw.SetVMMSegment(seg)
	if hw.Mode() != mmu.ModeDualDirect {
		t.Fatalf("stage 2 mode = %v", hw.Mode())
	}
	hw.ResetStats()
	for off := uint64(0); off < 1<<20; off += 4096 {
		if _, fault := hw.Translate(1<<30 + off); fault != nil {
			t.Fatalf("stage 2 translate: %v", fault)
		}
	}
	st := hw.Stats()
	if st.WalkMemRefs != 0 {
		t.Errorf("Dual Direct made %d walk references after transition", st.WalkMemRefs)
	}
	// Cross-check: segment translation equals the nested table's view.
	gpa := proc.Seg.Translate(1 << 30)
	hpaSeg := seg.Translate(gpa)
	hpaNPT, _, ok := vm.NPT.Translate(gpa)
	if !ok || hpaSeg != hpaNPT {
		t.Errorf("segment/nPT disagree: %#x vs %#x", hpaSeg, hpaNPT)
	}
}

// TestHardwareVsEmulationEquivalence cross-validates the paper's §VI.B
// prototype strategy: segment emulation by dynamically computed PTEs
// must produce exactly the translations segment hardware produces.
func TestHardwareVsEmulationEquivalence(t *testing.T) {
	build := func(emulate bool) (*mmu.MMU, *guestos.Process) {
		mem := physmem.New(physmem.Config{Name: "machine", Size: 128 << 20})
		kernel := guestos.NewKernel(mem, nil)
		proc, err := kernel.CreateProcess("p")
		if err != nil {
			t.Fatal(err)
		}
		proc.EmulateSegment = emulate
		if err := proc.CreatePrimaryRegionAt(addr.Range{Start: 1 << 30, Size: 8 << 20}); err != nil {
			t.Fatal(err)
		}
		hw := mmu.New(mmu.Config{})
		hw.SetGuestPageTable(proc.PT)
		if !emulate {
			hw.SetGuestSegment(proc.Seg)
		}
		return hw, proc
	}
	hwReal, procReal := build(false)
	hwEmul, procEmul := build(true)
	// Same fresh kernels allocate the same backing, so translations
	// must agree address by address.
	if procReal.Seg != procEmul.Seg {
		t.Fatalf("backing diverged: %v vs %v", procReal.Seg, procEmul.Seg)
	}
	for off := uint64(0); off < 4<<20; off += 4096 {
		va := 1<<30 + off + 7
		r1, f1 := hwReal.Translate(va)
		if f1 != nil {
			t.Fatalf("hardware fault at %#x", va)
		}
		var r2 mmu.Result
		for {
			var f2 *mmu.Fault
			r2, f2 = hwEmul.Translate(va)
			if f2 == nil {
				break
			}
			if err := procEmul.HandleFault(f2.Addr); err != nil {
				t.Fatal(err)
			}
		}
		if r1.HPA != r2.HPA {
			t.Fatalf("hardware %#x != emulation %#x at va %#x", r1.HPA, r2.HPA, va)
		}
	}
	// Hardware does it without page-table references; emulation pays
	// for walks — the §VI.B caveat ("does not provide any performance
	// improvement without new hardware").
	if hwReal.Stats().WalkMemRefs != 0 {
		t.Error("segment hardware performed walks")
	}
	if hwEmul.Stats().WalkMemRefs == 0 {
		t.Error("emulation performed no walks")
	}
}

func seededPicker(seed uint64) func(n uint64) uint64 { return trace.NewRand(seed).Uint64n }
