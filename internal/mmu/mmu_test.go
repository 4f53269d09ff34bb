package mmu

import (
	"testing"

	"vdirect/internal/addr"
	"vdirect/internal/pagetable"
	"vdirect/internal/physmem"
	"vdirect/internal/ptecache"
	"vdirect/internal/segment"
)

// env wires a guest physical space, a host physical space, identity-plus-
// offset nested mappings, and an MMU — a miniature VM.
type env struct {
	hostMem, guestMem *physmem.Memory
	gPT, nPT          *pagetable.Table
	m                 *MMU
	hostBase          uint64 // hPA where gPA 0 lands
	guestSize         uint64
}

// buildEnv builds a VM with guestMB of guest physical memory fully
// mapped by the nested page table at a fixed host offset.
func buildEnv(guestMB uint64, cfg Config) (*env, error) {
	e := &env{
		hostMem:   physmem.New(physmem.Config{Name: "host", Size: (guestMB * 4) << 20}),
		guestMem:  physmem.New(physmem.Config{Name: "guest", Size: guestMB << 20}),
		guestSize: guestMB << 20,
	}
	var err error
	e.nPT, err = pagetable.New(e.hostMem)
	if err != nil {
		return nil, err
	}
	// Back all guest physical memory with a contiguous host region.
	frames := e.guestSize >> 12
	first, err := e.hostMem.AllocContiguous(frames, 1)
	if err != nil {
		return nil, err
	}
	e.hostBase = first << 12
	for p := uint64(0); p < frames; p++ {
		if err := e.nPT.Map(p<<12, e.hostBase+p<<12, addr.Page4K); err != nil {
			return nil, err
		}
	}
	e.gPT, err = pagetable.New(e.guestMem)
	if err != nil {
		return nil, err
	}
	e.m = New(cfg)
	e.m.SetGuestPageTable(e.gPT)
	e.m.SetNestedPageTable(e.nPT)
	return e, nil
}

// newEnv is the testing.T wrapper around buildEnv.
func newEnv(t *testing.T, guestMB uint64, cfg Config) *env {
	t.Helper()
	e, err := buildEnv(guestMB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// mapGuest maps gVA→gPA 4K pages for n pages starting at the bases.
func (e *env) mapGuest(t *testing.T, gva, gpa uint64, n uint64) {
	t.Helper()
	for p := uint64(0); p < n; p++ {
		if err := e.gPT.Map(gva+p<<12, gpa+p<<12, addr.Page4K); err != nil {
			t.Fatal(err)
		}
	}
}

// coldConfig disables all walk caches so reference counts are maximal.
func coldConfig() Config {
	return Config{
		DisablePWC:       true,
		DisableNestedTLB: true,
		PTECache:         ptecache.Config{Lines: 8, Ways: 1, HitCycles: 10, MissCycles: 100},
	}
}

func TestWalkReferenceCounts2D(t *testing.T) {
	// The headline number: a cold virtualized 4K+4K walk performs 24
	// page-table references (Figure 2).
	e := newEnv(t, 16, coldConfig())
	e.mapGuest(t, 0x400000, 0x800000, 4)
	res, fault := e.m.Translate(0x400123)
	if fault != nil {
		t.Fatal(fault)
	}
	st := e.m.Stats()
	if st.WalkMemRefs != 24 {
		t.Errorf("2D walk made %d references, want 24", st.WalkMemRefs)
	}
	if res.HPA != e.hostBase+0x800123 {
		t.Errorf("hPA = %#x, want %#x", res.HPA, e.hostBase+0x800123)
	}
	if e.m.Mode() != ModeBaseVirtualized {
		t.Errorf("mode = %v", e.m.Mode())
	}
	if st.SegmentChecks != 0 {
		t.Errorf("base virtualized made %d segment checks, want 0", st.SegmentChecks)
	}
}

func TestWalkReferenceCountsNative(t *testing.T) {
	e := newEnv(t, 16, coldConfig())
	e.m.SetNestedPageTable(nil) // native
	e.mapGuest(t, 0x400000, 0x800000, 4)
	if e.m.Mode() != ModeNative {
		t.Fatalf("mode = %v", e.m.Mode())
	}
	res, fault := e.m.Translate(0x400123)
	if fault != nil {
		t.Fatal(fault)
	}
	st := e.m.Stats()
	if st.WalkMemRefs != 4 {
		t.Errorf("native walk made %d references, want 4", st.WalkMemRefs)
	}
	if res.HPA != 0x800123 {
		t.Errorf("PA = %#x", res.HPA)
	}
}

func TestWalkReferenceCountsVMMDirect(t *testing.T) {
	// VMM Direct: 4 memory accesses and 5 base-bound checks (§III.B).
	e := newEnv(t, 16, coldConfig())
	e.mapGuest(t, 0x400000, 0x800000, 4)
	e.m.SetVMMSegment(segment.NewRegisters(0, e.hostBase, e.guestSize))
	if e.m.Mode() != ModeVMMDirect {
		t.Fatalf("mode = %v", e.m.Mode())
	}
	_, fault := e.m.Translate(0x400123)
	if fault != nil {
		t.Fatal(fault)
	}
	st := e.m.Stats()
	if st.WalkMemRefs != 4 {
		t.Errorf("VMM Direct walk made %d references, want 4", st.WalkMemRefs)
	}
	if st.SegmentChecks != 5 {
		t.Errorf("VMM Direct made %d checks, want 5", st.SegmentChecks)
	}
	if st.MissVMMOnly != 1 {
		t.Errorf("classification: MissVMMOnly = %d", st.MissVMMOnly)
	}
}

func TestWalkReferenceCountsGuestDirect(t *testing.T) {
	// Guest Direct: 4 memory accesses and 1 calculation (§III.C).
	e := newEnv(t, 16, coldConfig())
	// Guest segment: gVA [0x400000, +2MB) → gPA 0x800000.
	e.m.SetGuestSegment(segment.NewRegisters(0x400000, 0x800000, 2<<20))
	if e.m.Mode() != ModeGuestDirect {
		t.Fatalf("mode = %v", e.m.Mode())
	}
	res, fault := e.m.Translate(0x400123)
	if fault != nil {
		t.Fatal(fault)
	}
	st := e.m.Stats()
	if st.WalkMemRefs != 4 {
		t.Errorf("Guest Direct walk made %d references, want 4 (nested only)", st.WalkMemRefs)
	}
	if st.SegmentChecks != 1 {
		t.Errorf("Guest Direct made %d checks, want 1", st.SegmentChecks)
	}
	if res.HPA != e.hostBase+0x800123 {
		t.Errorf("hPA = %#x", res.HPA)
	}
	if st.MissGuestOnly != 1 {
		t.Errorf("classification: MissGuestOnly = %d", st.MissGuestOnly)
	}
}

func TestWalkReferenceCountsDualDirect(t *testing.T) {
	// Dual Direct: zero references, one combined check (Table II).
	e := newEnv(t, 16, coldConfig())
	e.m.SetGuestSegment(segment.NewRegisters(0x400000, 0x800000, 2<<20))
	e.m.SetVMMSegment(segment.NewRegisters(0, e.hostBase, e.guestSize))
	if e.m.Mode() != ModeDualDirect {
		t.Fatalf("mode = %v", e.m.Mode())
	}
	res, fault := e.m.Translate(0x400123)
	if fault != nil {
		t.Fatal(fault)
	}
	st := e.m.Stats()
	if st.WalkMemRefs != 0 {
		t.Errorf("Dual Direct made %d references, want 0", st.WalkMemRefs)
	}
	if st.SegmentChecks != 1 {
		t.Errorf("Dual Direct made %d checks, want 1", st.SegmentChecks)
	}
	if !res.ZeroD {
		t.Error("not flagged as 0D")
	}
	if st.ZeroDWalks != 1 || st.MissBoth != 1 {
		t.Errorf("stats: %+v", st)
	}
	if res.HPA != e.hostBase+0x800123 {
		t.Errorf("hPA = %#x", res.HPA)
	}
}

func TestWalkReferenceCountsDirectSegmentNative(t *testing.T) {
	// Unvirtualized Direct Segment: 1 calculation, 0 references (§III.D).
	e := newEnv(t, 16, coldConfig())
	e.m.SetNestedPageTable(nil)
	e.m.SetGuestSegment(segment.NewRegisters(0x400000, 0x800000, 2<<20))
	if e.m.Mode() != ModeDirectSegment {
		t.Fatalf("mode = %v", e.m.Mode())
	}
	res, fault := e.m.Translate(0x400123)
	if fault != nil {
		t.Fatal(fault)
	}
	st := e.m.Stats()
	if st.WalkMemRefs != 0 || st.SegmentChecks != 1 {
		t.Errorf("refs=%d checks=%d, want 0/1", st.WalkMemRefs, st.SegmentChecks)
	}
	if res.HPA != 0x800123 {
		t.Errorf("PA = %#x", res.HPA)
	}
}

func TestL1HitBypassesEverything(t *testing.T) {
	e := newEnv(t, 16, coldConfig())
	e.mapGuest(t, 0x400000, 0x800000, 1)
	if _, fault := e.m.Translate(0x400123); fault != nil {
		t.Fatal(fault)
	}
	before := e.m.Stats()
	res, fault := e.m.Translate(0x400456)
	if fault != nil {
		t.Fatal(fault)
	}
	if !res.L1Hit || res.Cycles != 0 {
		t.Errorf("second access: L1Hit=%v cycles=%d", res.L1Hit, res.Cycles)
	}
	after := e.m.Stats()
	if after.WalkMemRefs != before.WalkMemRefs {
		t.Error("L1 hit performed walk references")
	}
	if after.L1Hits != before.L1Hits+1 {
		t.Error("L1 hit not counted")
	}
}

func TestL2HitPath(t *testing.T) {
	e := newEnv(t, 16, Config{PTECache: ptecache.Default})
	e.mapGuest(t, 0x400000, 0x800000, 128)
	// Touch 128 pages: far beyond L1 4K capacity (64) but within L2
	// (512). Re-touching the first page should hit L2, not walk.
	for p := uint64(0); p < 128; p++ {
		if _, fault := e.m.Translate(0x400000 + p<<12); fault != nil {
			t.Fatal(fault)
		}
	}
	before := e.m.Stats()
	res, fault := e.m.Translate(0x400000)
	if fault != nil {
		t.Fatal(fault)
	}
	after := e.m.Stats()
	if !res.L2Hit {
		t.Errorf("expected L2 hit, got %+v", res)
	}
	if after.Walks != before.Walks {
		t.Error("L2 hit invoked the walker")
	}
}

func TestGuestFault(t *testing.T) {
	e := newEnv(t, 16, coldConfig())
	_, fault := e.m.Translate(0xdead0000)
	if fault == nil || fault.Kind != FaultGuest {
		t.Fatalf("fault = %v", fault)
	}
	if fault.Addr != 0xdead0000 {
		t.Errorf("fault addr = %#x", fault.Addr)
	}
	if e.m.Stats().GuestFaults != 1 {
		t.Error("guest fault not counted")
	}
	if fault.Error() == "" {
		t.Error("empty fault message")
	}
}

func TestNestedFault(t *testing.T) {
	e := newEnv(t, 16, coldConfig())
	// Map gVA to a gPA outside nested coverage.
	badGPA := e.guestSize + 0x100000
	if err := e.gPT.Map(0x400000, badGPA, addr.Page4K); err != nil {
		t.Fatal(err)
	}
	_, fault := e.m.Translate(0x400123)
	if fault == nil || fault.Kind != FaultNested {
		t.Fatalf("fault = %v", fault)
	}
	if fault.Addr != badGPA+0x123 {
		t.Errorf("fault addr = %#x, want %#x", fault.Addr, badGPA+0x123)
	}
	if e.m.Stats().NestedFaults != 1 {
		t.Error("nested fault not counted")
	}
}

func TestEscapeFilterForcesPagingPath(t *testing.T) {
	e := newEnv(t, 16, coldConfig())
	e.m.SetGuestSegment(segment.NewRegisters(0x400000, 0x800000, 2<<20))
	e.m.SetVMMSegment(segment.NewRegisters(0, e.hostBase, e.guestSize))
	// Escape the gPA page backing gVA 0x400000.
	escGPA := uint64(0x800000)
	e.m.VMMEscapeFilter().Insert(escGPA >> 12)
	// The VMM must provide a nested mapping for escaped pages — it
	// already exists (identity map), possibly remapped elsewhere; remap
	// to a distinct host page to prove the paging path is used.
	if err := e.nPT.Remap(escGPA, e.hostBase+0x3000000); err != nil {
		t.Fatal(err)
	}
	res, fault := e.m.Translate(0x400123)
	if fault != nil {
		t.Fatal(fault)
	}
	if res.HPA != e.hostBase+0x3000000+0x123 {
		t.Errorf("escaped page hPA = %#x, want remapped target", res.HPA)
	}
	st := e.m.Stats()
	if st.EscapeTaken == 0 {
		t.Error("escape not taken")
	}
	if st.ZeroDWalks != 0 {
		t.Error("escaped access used 0D path")
	}
	// A non-escaped neighbour still takes the 0D path.
	e.m.ResetStats()
	if _, fault := e.m.Translate(0x400000 + 0x5000); fault != nil {
		t.Fatal(fault)
	}
	if e.m.Stats().ZeroDWalks != 1 {
		t.Error("neighbour did not use 0D path")
	}
}

func TestPWCReducesNativeWalkRefs(t *testing.T) {
	cfg := Config{PTECache: ptecache.Default}
	e := newEnv(t, 16, cfg)
	e.m.SetNestedPageTable(nil)
	e.mapGuest(t, 0x400000, 0x800000, 16)
	// First walk: cold PWC, 4 refs. Second walk to an adjacent page:
	// PDE cached, so only the leaf (PT) reference remains.
	if _, fault := e.m.Translate(0x400000); fault != nil {
		t.Fatal(fault)
	}
	refsAfterFirst := e.m.Stats().WalkMemRefs
	if refsAfterFirst != 4 {
		t.Fatalf("first walk refs = %d", refsAfterFirst)
	}
	if _, fault := e.m.Translate(0x401000); fault != nil {
		t.Fatal(fault)
	}
	refsSecond := e.m.Stats().WalkMemRefs - refsAfterFirst
	if refsSecond != 1 {
		t.Errorf("warm-PWC walk made %d refs, want 1", refsSecond)
	}
}

func TestNestedTLBReduces2DWalkRefs(t *testing.T) {
	cfg := Config{PTECache: ptecache.Default}
	e := newEnv(t, 16, cfg)
	e.mapGuest(t, 0x400000, 0x800000, 16)
	if _, fault := e.m.Translate(0x400000); fault != nil {
		t.Fatal(fault)
	}
	first := e.m.Stats().WalkMemRefs
	// Second translation of a neighbouring page reuses nested TLB
	// entries for the shared gPT pages and guest PWC for upper levels.
	if _, fault := e.m.Translate(0x401000); fault != nil {
		t.Fatal(fault)
	}
	second := e.m.Stats().WalkMemRefs - first
	if second >= first {
		t.Errorf("warm 2D walk refs = %d, not fewer than cold %d", second, first)
	}
	if e.m.Stats().NestedTLBHits == 0 {
		t.Error("nested TLB never hit")
	}
}

// TestWarm2DWalkCounts pins the exact references and nested walks of
// each access in a short 4K+4K script with every cache on, so each
// paging-structure-cache (PWC) skip and fill on the 2D walk of Figure
// 5(b) is held by a count: a cold walk is 4 guest references, each
// nested-translated first, then the final gPA's nested translation.
// The guest table's pages sit at gPA 0x0 (PML4), 0x1000 (PDPT), 0x2000
// (PD), 0x3000 (PT for gVA 0x400000) and 0x4000 (PT for gVA 0x600000),
// all in the first 2M of guest physical memory.
func TestWarm2DWalkCounts(t *testing.T) {
	e := newEnv(t, 16, Config{PTECache: ptecache.Default})
	e.mapGuest(t, 0x400000, 0x800000, 2)
	e.mapGuest(t, 0x600000, 0xa00000, 1)
	for _, step := range []struct {
		gva               uint64
		refs, nestedWalks uint64 // this access's own counts
		why               string
	}{
		// Cold. The guest walk reads all 4 levels. The PML4 page's gPA
		// misses the nested TLB and its nested walk reads all 4 levels,
		// filling the nested walk cache and nested PWC for the first 2M
		// of gPA. The PDPT, PD and PT pages' gPAs then each miss the
		// nested TLB, are served by the walk cache and skip 3 levels on
		// the nested PDE: 1 reference each. The final gPA 0x800000's
		// nested walk, in an uncached 2M region, skips 2 levels on the
		// nested PDPTE: 2 references. 4 + 4+1+1+1 + 2 = 13 in 5 nested
		// walks.
		{0x400000, 13, 5, "cold"},
		// Next guest page. The guest walk skips 3 levels on the guest
		// PDE: only the PT reference, whose page the nested TLB holds.
		// The final gPA 0x801000 misses the nested TLB and its nested
		// walk skips 3 levels: 1 reference. 1 + 1 = 2 in 1 nested walk.
		{0x401000, 2, 1, "adjacent"},
		// L1 TLB hit: no walk.
		{0x400000, 0, 0, "repeat"},
		// New 2M guest region. The guest walk skips 2 levels on the
		// guest PDPTE: the PD reference (its page is in the nested TLB)
		// and the PT reference, whose page at gPA 0x4000 misses the
		// nested TLB and takes a nested walk skipping 3 levels (1
		// reference). The final gPA 0xa00000's nested walk skips 2
		// levels: 2 references. 2 + 1 + 2 = 5 in 2 nested walks.
		{0x600000, 5, 2, "new guest region"},
	} {
		before := e.m.Stats()
		if _, fault := e.m.Translate(step.gva); fault != nil {
			t.Fatalf("%s %#x: %v", step.why, step.gva, fault)
		}
		after := e.m.Stats()
		refs := after.WalkMemRefs - before.WalkMemRefs
		nw := after.NestedWalks - before.NestedWalks
		if refs != step.refs || nw != step.nestedWalks {
			t.Errorf("%s %#x: %d refs in %d nested walks, want %d in %d",
				step.why, step.gva, refs, nw, step.refs, step.nestedWalks)
		}
	}
}

func TestContextSwitchFlushes(t *testing.T) {
	e := newEnv(t, 16, coldConfig())
	e.mapGuest(t, 0x400000, 0x800000, 1)
	if _, fault := e.m.Translate(0x400123); fault != nil {
		t.Fatal(fault)
	}
	// Switch to a second process whose table maps the same gVA elsewhere.
	gpt2, err := pagetable.New(e.guestMem)
	if err != nil {
		t.Fatal(err)
	}
	if err := gpt2.Map(0x400000, 0xc00000, addr.Page4K); err != nil {
		t.Fatal(err)
	}
	e.m.ContextSwitch(gpt2, segment.Disabled())
	res, fault := e.m.Translate(0x400123)
	if fault != nil {
		t.Fatal(fault)
	}
	if res.L1Hit {
		t.Error("stale L1 entry survived context switch")
	}
	if res.HPA != e.hostBase+0xc00123 {
		t.Errorf("post-switch hPA = %#x", res.HPA)
	}
}

func TestInvalidateNested(t *testing.T) {
	e := newEnv(t, 16, coldConfig())
	e.mapGuest(t, 0x400000, 0x800000, 1)
	if _, fault := e.m.Translate(0x400123); fault != nil {
		t.Fatal(fault)
	}
	// VMM remaps the backing host page.
	if err := e.nPT.Remap(0x800000, e.hostBase+0x2000000); err != nil {
		t.Fatal(err)
	}
	e.m.InvalidateNested()
	res, fault := e.m.Translate(0x400123)
	if fault != nil {
		t.Fatal(fault)
	}
	if res.HPA != e.hostBase+0x2000000+0x123 {
		t.Errorf("post-remap hPA = %#x", res.HPA)
	}
}

func TestCompositePageSizeIsMinimum(t *testing.T) {
	// Guest 2M mapping over nested 4K pages must cache at 4K: adjacent
	// 4K neighbours inside the 2M page but with different nested frames
	// must translate independently.
	e := newEnv(t, 16, coldConfig())
	if err := e.gPT.Map(0x200000, 0x400000, addr.Page2M); err != nil {
		t.Fatal(err)
	}
	// Remap one 4K nested page inside the guest 2M page.
	if err := e.nPT.Remap(0x401000, e.hostBase+0x3000000); err != nil {
		t.Fatal(err)
	}
	r1, fault := e.m.Translate(0x200000) // gPA 0x400000 → identity
	if fault != nil {
		t.Fatal(fault)
	}
	r2, fault := e.m.Translate(0x201000) // gPA 0x401000 → remapped
	if fault != nil {
		t.Fatal(fault)
	}
	if r1.HPA != e.hostBase+0x400000 {
		t.Errorf("r1 = %#x", r1.HPA)
	}
	if r2.HPA != e.hostBase+0x3000000 {
		t.Errorf("r2 = %#x (2M composite entry smeared nested 4K remap)", r2.HPA)
	}
}

func TestModeStrings(t *testing.T) {
	want := map[Mode]string{
		ModeNative:          "Native",
		ModeDirectSegment:   "DirectSegment",
		ModeBaseVirtualized: "BaseVirtualized",
		ModeDualDirect:      "DualDirect",
		ModeVMMDirect:       "VMMDirect",
		ModeGuestDirect:     "GuestDirect",
		ModeFlatNested:      "FlatNested",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%v.String() = %q", m, m.String())
		}
		if _, err := SchemeByName(s); err != nil {
			t.Errorf("SchemeByName(%q): %v", s, err)
		}
	}
	if ModeNative.Virtualized() || !ModeDualDirect.Virtualized() || !ModeFlatNested.Virtualized() {
		t.Error("Virtualized() wrong")
	}
	// An unregistered name is just its own string and never virtualized.
	if Mode("Mode(99)").String() != "Mode(99)" || Mode("Mode(99)").Virtualized() {
		t.Error("unknown mode string")
	}
}

func TestResetStats(t *testing.T) {
	e := newEnv(t, 16, coldConfig())
	e.mapGuest(t, 0x400000, 0x800000, 1)
	e.m.Translate(0x400123)
	e.m.ResetStats()
	if st := e.m.Stats(); st.Accesses != 0 || st.WalkMemRefs != 0 {
		t.Errorf("stats after reset: %+v", st)
	}
}

func TestVMMDirectUncoveredGPAFallsBack(t *testing.T) {
	// A gPA outside the VMM segment must use nested paging (Table I
	// "Neither"/partial coverage case).
	e := newEnv(t, 16, coldConfig())
	e.mapGuest(t, 0x400000, 0x800000, 1)
	// VMM segment covers only the first 4MB of guest memory; the data
	// page at gPA 0x800000 (8MB) is outside, but gPT pages (low gPAs)
	// are inside.
	e.m.SetVMMSegment(segment.NewRegisters(0, e.hostBase, 4<<20))
	res, fault := e.m.Translate(0x400123)
	if fault != nil {
		t.Fatal(fault)
	}
	if res.HPA != e.hostBase+0x800123 {
		t.Errorf("hPA = %#x", res.HPA)
	}
	st := e.m.Stats()
	// Guest PTE references resolved via segment; the final gPA needed a
	// nested walk: 4 guest refs + 4 nested refs.
	if st.WalkMemRefs != 8 {
		t.Errorf("refs = %d, want 8", st.WalkMemRefs)
	}
	if st.MissVMMOnly != 0 || st.MissNeither != 1 {
		t.Errorf("classification: %+v", st)
	}
}

func TestCyclesAccumulate(t *testing.T) {
	e := newEnv(t, 16, coldConfig())
	e.mapGuest(t, 0x400000, 0x800000, 1)
	res, fault := e.m.Translate(0x400123)
	if fault != nil {
		t.Fatal(fault)
	}
	if res.Cycles == 0 {
		t.Error("2D walk charged zero cycles")
	}
	if e.m.Stats().WalkCycles != res.Cycles {
		t.Errorf("WalkCycles %d != result cycles %d", e.m.Stats().WalkCycles, res.Cycles)
	}
}
