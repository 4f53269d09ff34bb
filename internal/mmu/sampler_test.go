package mmu

import (
	"testing"

	"vdirect/internal/addr"
	"vdirect/internal/segment"
	"vdirect/internal/telemetry/walkprof"
)

// sampleEverything attaches a period-1 sampler (seed 0 → phase 1: every
// miss records) so sample sums can be compared exactly against Stats.
func sampleEverything(m *MMU) *walkprof.Sampler {
	p := walkprof.Enable(1)
	p.Stop() // only the sampler is needed, not the global profile
	s := p.Sampler("test", 0, 0)
	m.SetWalkSampler(s)
	return s
}

// TestSamplerMatchesStatsExactly runs a miss-heavy access pattern with
// a period-1 sampler and checks that the sample stream reconstructs the
// MMU's own counters exactly: per-class miss counts, total walk refs,
// and total walk cycles attributed to walks. This is the zero-sampling-
// error case of the acceptance criterion.
func TestSamplerMatchesStatsExactly(t *testing.T) {
	e := newEnv(t, 16, Config{})
	s := sampleEverything(e.m)
	e.mapGuest(t, 0, 0, 2048)
	// Strided sweeps, repeated: the 2048-page sweep overflows both TLBs
	// (every miss walks); the 256-page one overflows only the L1, so its
	// repeats hit the L2.
	for _, pages := range []uint64{2048, 256} {
		for rep := 0; rep < 3; rep++ {
			for p := uint64(0); p < pages; p++ {
				if _, fault := e.m.Translate(p << 12); fault != nil {
					t.Fatal(fault)
				}
			}
		}
	}
	st := e.m.Stats()
	if st.L2Hits == 0 {
		t.Fatal("no L2 hits — test drives the wrong path")
	}
	var refs, cycles, walks, l2hits uint64
	for _, smp := range s.Samples() {
		refs += smp.Refs
		cycles += smp.Cycles
		switch smp.Class {
		case walkprof.ClassL2Hit:
			l2hits++
		case walkprof.ClassWalkNeither:
			walks++
		default:
			t.Fatalf("unexpected class %v for base virtualized", smp.Class)
		}
	}
	if walks != st.Walks {
		t.Errorf("sampled walks = %d, stats %d", walks, st.Walks)
	}
	if l2hits != st.L2Hits {
		t.Errorf("sampled L2 hits = %d, stats %d", l2hits, st.L2Hits)
	}
	if refs != st.WalkMemRefs {
		t.Errorf("sampled refs = %d, stats %d", refs, st.WalkMemRefs)
	}
	if cycles != st.WalkCycles {
		t.Errorf("sampled cycles = %d, stats %d", cycles, st.WalkCycles)
	}
	if uint64(s.Len()) != st.L1Misses {
		t.Errorf("samples = %d, L1 misses %d (every resolved miss should sample at period 1)",
			s.Len(), st.L1Misses)
	}
}

// TestSamplerZeroDAndSegmentClasses drives the dual fast path and the
// native direct-segment fast path and checks class tagging.
func TestSamplerZeroDAndSegmentClasses(t *testing.T) {
	e := newEnv(t, 16, Config{})
	s := sampleEverything(e.m)
	// Both segments cover all of guest memory: every miss is 0D.
	e.m.SetGuestSegment(segment.NewRegisters(0, 0, e.guestSize))
	e.m.SetVMMSegment(segment.NewRegisters(0, e.hostBase, e.guestSize))
	if e.m.Mode() != ModeDualDirect {
		t.Fatalf("mode = %v", e.m.Mode())
	}
	for p := uint64(0); p < 512; p++ {
		if _, fault := e.m.Translate(p << 12); fault != nil {
			t.Fatal(fault)
		}
	}
	st := e.m.Stats()
	if st.ZeroDWalks == 0 {
		t.Fatal("no 0D resolutions — test drives the wrong path")
	}
	var zerod uint64
	for _, smp := range s.Samples() {
		if smp.Class == walkprof.ClassZeroD {
			zerod++
			if smp.Refs != 0 {
				t.Fatalf("0D sample with %d refs", smp.Refs)
			}
		}
	}
	if zerod != st.ZeroDWalks {
		t.Errorf("sampled 0D = %d, stats %d", zerod, st.ZeroDWalks)
	}

	// Native direct segment: same check on the unvirtualized fast path.
	e2 := newEnv(t, 16, Config{})
	s2 := sampleEverything(e2.m)
	e2.m.SetNestedPageTable(nil)
	e2.m.SetGuestSegment(segment.NewRegisters(0, 0, e2.guestSize))
	if e2.m.Mode() != ModeDirectSegment {
		t.Fatalf("mode = %v", e2.m.Mode())
	}
	for p := uint64(0); p < 256; p++ {
		if _, fault := e2.m.Translate(p << 12); fault != nil {
			t.Fatal(fault)
		}
	}
	st2 := e2.m.Stats()
	var zerod2 uint64
	for _, smp := range s2.Samples() {
		if smp.Class == walkprof.ClassZeroD {
			zerod2++
		}
	}
	if zerod2 != st2.ZeroDWalks || zerod2 == 0 {
		t.Errorf("native DS sampled 0D = %d, stats %d", zerod2, st2.ZeroDWalks)
	}
}

// TestSamplerWalk1DAndSize checks the native walk class and that the
// effective page size of the composite translation is stamped into the
// sample.
func TestSamplerWalk1DAndSize(t *testing.T) {
	e := newEnv(t, 16, coldConfig())
	s := sampleEverything(e.m)
	e.m.SetNestedPageTable(nil)
	e.mapGuest(t, 0x400000, 0x800000, 1)
	if err := e.gPT.Map(1<<21, 1<<21, addr.Page2M); err != nil {
		t.Fatal(err)
	}
	if _, fault := e.m.Translate(0x400000); fault != nil {
		t.Fatal(fault)
	}
	if _, fault := e.m.Translate(1<<21 + 0x123); fault != nil {
		t.Fatal(fault)
	}
	smps := s.Samples()
	if len(smps) != 2 {
		t.Fatalf("got %d samples, want 2", len(smps))
	}
	if smps[0].Class != walkprof.ClassWalk1D || smps[0].Size != addr.Page4K {
		t.Errorf("4K native walk sample = %+v", smps[0])
	}
	if smps[1].Class != walkprof.ClassWalk1D || smps[1].Size != addr.Page2M {
		t.Errorf("2M native walk sample = %+v", smps[1])
	}
	if smps[1].VPN != (1<<21+0x123)>>addr.PageShift4K {
		t.Errorf("VPN = %#x", smps[1].VPN)
	}
}

// TestSamplerASIDTagging checks ContextSwitchASID stamps the new
// address space into subsequent samples.
func TestSamplerASIDTagging(t *testing.T) {
	e := newEnv(t, 16, Config{})
	s := sampleEverything(e.m)
	e.mapGuest(t, 0, 0, 4)
	e.m.ContextSwitchASID(e.gPT, e.m.GuestSegment(), 7)
	if _, fault := e.m.Translate(0); fault != nil {
		t.Fatal(fault)
	}
	if got := s.Samples()[0].ASID; got != 7 {
		t.Errorf("sample ASID = %d, want 7", got)
	}
}

// TestSamplerDoesNotPerturbStats pins the zero-cost-when-on contract
// for accounting: an attached sampler must not change any Stats field
// or translation result.
func TestSamplerDoesNotPerturbStats(t *testing.T) {
	run := func(sample bool) Stats {
		e := newEnv(t, 16, Config{})
		if sample {
			sampleEverything(e.m)
		}
		e.mapGuest(t, 0, 0, 1024)
		for rep := 0; rep < 2; rep++ {
			for p := uint64(0); p < 1024; p += 3 {
				if _, fault := e.m.Translate(p<<12 + p%4096); fault != nil {
					t.Fatal(fault)
				}
			}
		}
		return e.m.Stats()
	}
	if run(false) != run(true) {
		t.Fatal("sampler perturbed MMU statistics")
	}
}
