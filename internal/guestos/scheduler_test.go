package guestos

import (
	"testing"

	"vdirect/internal/addr"
	"vdirect/internal/mmu"
	"vdirect/internal/physmem"
)

// schedEnv builds a native kernel with two processes, each owning a
// segment-backed primary region, plus one MMU.
func schedEnv(t *testing.T) ([]*Process, *mmu.MMU) {
	t.Helper()
	mem := physmem.New(physmem.Config{Name: "m", Size: 256 << 20})
	k := NewKernel(mem, nil)
	var procs []*Process
	for i := 0; i < 2; i++ {
		p, err := k.CreateProcess("p")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.CreatePrimaryRegion(16 << 20); err != nil {
			t.Fatal(err)
		}
		procs = append(procs, p)
	}
	hw := mmu.New(mmu.Config{})
	return procs, hw
}

func TestSchedulerSwitchesSegments(t *testing.T) {
	procs, hw := schedEnv(t)
	s := NewScheduler(procs)
	if err := s.SwitchTo(0, hw); err != nil {
		t.Fatal(err)
	}
	if hw.GuestSegment() != procs[0].Seg {
		t.Error("segment registers not installed")
	}
	// Both processes use the same primary-region VA; the hardware must
	// translate it per the *current* process's segment.
	va := procs[0].PrimaryRegion().Start + 0x123
	r0, fault := hw.Translate(va)
	if fault != nil {
		t.Fatal(fault)
	}
	if err := s.SwitchTo(1, hw); err != nil {
		t.Fatal(err)
	}
	if hw.GuestSegment() != procs[1].Seg {
		t.Error("segment registers not switched")
	}
	r1, fault := hw.Translate(va)
	if fault != nil {
		t.Fatal(fault)
	}
	if r0.HPA == r1.HPA {
		t.Error("two processes translated the shared VA identically")
	}
	// Indices wrap round-robin.
	if err := s.SwitchTo(2, hw); err != nil {
		t.Fatal(err)
	}
	if hw.GuestSegment() != procs[0].Seg {
		t.Error("index 2 did not wrap to the first process")
	}
}

func TestSchedulerASIDKeepsEntriesWarm(t *testing.T) {
	// The flush baseline switches with hw.ContextSwitch directly, as
	// the evaluated 2014-era machine would.
	run := func(useASID bool) uint64 {
		procs, hw := schedEnv(t)
		s := NewScheduler(procs)
		// Each process touches pages OUTSIDE its segment (ordinary
		// paged memory) so TLB entries matter.
		var bases []uint64
		for _, p := range procs {
			base, _ := p.MMap(64 << 10)
			if err := p.Prefault(addr.Range{Start: base, Size: 64 << 10}); err != nil {
				t.Fatal(err)
			}
			bases = append(bases, base)
		}
		for slice := 0; slice < 8; slice++ {
			if useASID {
				if err := s.SwitchTo(slice, hw); err != nil {
					t.Fatal(err)
				}
			} else {
				p := procs[slice%2]
				hw.ContextSwitch(p.PT, p.Seg)
			}
			base := bases[slice%2]
			for off := uint64(0); off < 64<<10; off += 4096 {
				if _, fault := hw.Translate(base + off); fault != nil {
					t.Fatal(fault)
				}
			}
		}
		return hw.Stats().Walks
	}
	flush := run(false)
	tagged := run(true)
	if tagged >= flush {
		t.Errorf("ASID scheduling did not reduce walks: %d vs %d", tagged, flush)
	}
}

func TestSchedulerEmpty(t *testing.T) {
	s := NewScheduler(nil)
	if err := s.SwitchTo(0, mmu.New(mmu.Config{})); err != ErrNoRunnable {
		t.Errorf("err = %v", err)
	}
}
