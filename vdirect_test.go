package vdirect

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"vdirect/internal/mmu"
)

func TestNewSystemAllModes(t *testing.T) {
	for _, mode := range []Mode{Native, DirectSegment, BaseVirtualized, DualDirect, VMMDirect, GuestDirect} {
		s, err := NewSystem(Config{Mode: mode, GuestMemory: 64 << 20})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		// Guest-segment modes report their pre-segment configuration
		// until a primary region exists.
		if mode == DirectSegment || mode == GuestDirect || mode == DualDirect {
			if _, err := s.CreatePrimaryRegion(8 << 20); err != nil {
				t.Fatalf("%v: primary region: %v", mode, err)
			}
		}
		if got := s.Mode(); got != mode {
			t.Errorf("mode = %v, want %v", got, mode)
		}
	}
}

func TestSystemAccessRoundTrip(t *testing.T) {
	s, err := NewSystem(Config{Mode: BaseVirtualized, GuestMemory: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	base, err := s.Map(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	hpa1, cycles, err := s.Access(base + 0x123)
	if err != nil {
		t.Fatal(err)
	}
	if cycles == 0 {
		t.Error("cold access charged zero cycles")
	}
	hpa2, cycles2, err := s.Access(base + 0x456)
	if err != nil {
		t.Fatal(err)
	}
	if cycles2 != 0 {
		t.Error("L1-hit access charged cycles")
	}
	if hpa2-hpa1 != 0x456-0x123 {
		t.Error("same-page accesses landed on different frames")
	}
	st := s.Stats()
	if st.Accesses != 3 { // retry after the demand fault re-translates
		t.Logf("accesses = %d (fault retry included)", st.Accesses)
	}
	s.ResetStats()
	if s.Stats().Accesses != 0 {
		t.Error("ResetStats failed")
	}
}

func TestSystemDualDirectZeroWalks(t *testing.T) {
	s, err := NewSystem(Config{Mode: DualDirect, GuestMemory: 128 << 20})
	if err != nil {
		t.Fatal(err)
	}
	base, err := s.CreatePrimaryRegion(32 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, enabled := s.GuestSegment(); !enabled {
		t.Fatal("guest segment disabled")
	}
	if _, _, _, enabled := s.VMMSegment(); !enabled {
		t.Fatal("VMM segment disabled")
	}
	s.ResetStats()
	for off := uint64(0); off < 1<<20; off += 4096 {
		if _, _, err := s.Access(base + off); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.WalkMemRefs != 0 {
		t.Errorf("Dual Direct made %d walk references", st.WalkMemRefs)
	}
	if st.ZeroDWalks == 0 {
		t.Error("no 0D walks recorded")
	}
}

func TestSystemPrimaryRegionWrongMode(t *testing.T) {
	s, err := NewSystem(Config{Mode: BaseVirtualized, GuestMemory: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreatePrimaryRegion(8 << 20); err != ErrNoSegment {
		t.Errorf("err = %v, want ErrNoSegment", err)
	}
}

func TestSystemMapEagerAndFree(t *testing.T) {
	s, err := NewSystem(Config{Mode: Native, GuestMemory: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	base := uint64(0x40000000)
	if err := s.MapEager(base, 4<<20, Page2M); err != nil {
		t.Fatal(err)
	}
	if _, cycles, err := s.Access(base); err != nil || cycles == 0 {
		t.Fatalf("eager access: cycles=%d err=%v", cycles, err)
	}
	// 2M mappings cannot be freed page-wise in this façade.
	if err := s.Free(base, 4096); err == nil {
		t.Error("freeing inside a 2M mapping should fail")
	}
	// 4K region frees fine.
	b2, _ := s.Map(64 << 10)
	if _, _, err := s.Access(b2); err != nil {
		t.Fatal(err)
	}
	if err := s.Free(b2, 64<<10); err != nil {
		t.Fatal(err)
	}
}

func TestSystemSelfBalloonFlow(t *testing.T) {
	s, err := NewSystem(Config{Mode: GuestDirect, GuestMemory: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if n := s.FragmentGuestMemory(0.6, 42); n == 0 {
		t.Fatal("fragmentation injected nothing")
	}
	if _, err := s.CreatePrimaryRegion(16 << 20); err == nil {
		t.Fatal("primary region backed despite fragmentation")
	}
	if _, err := s.SelfBalloon(16 << 20); err != nil {
		t.Fatal(err)
	}
	if err := s.RetryPrimaryRegion(); err != nil {
		t.Fatal(err)
	}
	if s.Mode() != GuestDirect {
		t.Errorf("mode = %v after self-balloon", s.Mode())
	}
}

func TestSystemEscapeBadPages(t *testing.T) {
	s, err := NewSystem(Config{Mode: DualDirect, GuestMemory: 128 << 20})
	if err != nil {
		t.Fatal(err)
	}
	base, err := s.CreatePrimaryRegion(16 << 20)
	if err != nil {
		t.Fatal(err)
	}
	gBase, _, gOff, _ := s.GuestSegment()
	_ = gBase
	badGPA := base + gOff + 0x5000 // gPA of an in-segment page
	if err := s.EscapeBadPages([]uint64{badGPA}); err != nil {
		t.Fatal(err)
	}
	// Accesses must still succeed (through the escape path).
	if _, _, err := s.Access(base + 0x5123); err != nil {
		t.Fatal(err)
	}
	if s.Stats().EscapeTaken == 0 {
		t.Error("escape filter never took")
	}
}

func TestRunCell(t *testing.T) {
	res, err := RunCell("gups", "4K+4K", ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	if res.Overhead <= 0 || res.Accesses == 0 {
		t.Errorf("result = %+v", res)
	}
	if _, err := RunCell("gups", "bogus", ScaleSmall); err == nil {
		t.Error("bogus config accepted")
	}
	if _, err := RunCell("bogus", "4K", ScaleSmall); err == nil {
		t.Error("bogus workload accepted")
	}
}

func TestWorkloadsList(t *testing.T) {
	names := Workloads()
	if len(names) != 11 {
		t.Errorf("workloads = %v", names)
	}
	if !WorkloadExists("graph500") || WorkloadExists("doom") {
		t.Error("WorkloadExists wrong")
	}
}

func TestTables(t *testing.T) {
	if !strings.Contains(TableII(), "Dual Direct") {
		t.Error("Table II content")
	}
	if !strings.Contains(TableIII(), "compaction") {
		t.Error("Table III content")
	}
}

func TestReproduceFigure13Small(t *testing.T) {
	out, err := Figure13(ScaleSmall, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "normalized") {
		t.Errorf("figure 13 output:\n%s", out)
	}
}

func TestReproduceAllSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole evaluation at small scale")
	}
	rep, err := ReproduceAll(ScaleSmall, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := PaperSections
	if len(rep.Sections) != len(want) {
		t.Fatalf("sections = %d, want %d", len(rep.Sections), len(want))
	}
	for i, name := range want {
		if rep.Sections[i].Name != name {
			t.Errorf("section %d = %q, want %q", i, rep.Sections[i].Name, name)
		}
		if rep.Sections[i].Text == "" {
			t.Errorf("section %q empty", name)
		}
		if rep.Sections[i].CSV == "" {
			t.Errorf("section %q has no CSV", name)
		}
	}
	if len(rep.String()) < 1000 {
		t.Error("report suspiciously short")
	}
}

// TestReproduceExtensionSections checks that a report with every
// extension study on holds PaperSections then ExtensionSections, the
// names paperbench -only accepts.
func TestReproduceExtensionSections(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole evaluation at small scale")
	}
	rep, err := ReproduceAllOpts(ScaleSmall, Options{Fig13Trials: 1, HostDensity: 2,
		Sections: slices.Concat(PaperSections, ExtensionSections)})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, s := range rep.Sections {
		got = append(got, s.Name)
	}
	if want := slices.Concat(PaperSections, ExtensionSections); !slices.Equal(got, want) {
		t.Errorf("sections = %v, want %v", got, want)
	}
}

// TestReproduceRunsOnlyNamedSections checks that Options.Sections
// selects what runs, not only what is reported: a table with no cells
// simulates nothing, energy runs the figure 11 and 12 cells it is
// computed from, and walkprof alone runs the paper sections.
func TestReproduceRunsOnlyNamedSections(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole evaluation at small scale")
	}
	cells := func(sections ...string) int {
		t.Helper()
		total := 0
		rep, err := ReproduceAllOpts(ScaleSmall, Options{Fig13Trials: 1, Sections: sections,
			Progress: func(_, n int) { total = n }})
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, s := range rep.Sections {
			got = append(got, s.Name)
		}
		if !slices.Equal(got, sections) {
			t.Errorf("Sections %v reported %v", sections, got)
		}
		return total
	}
	if n := cells("tableII"); n != 0 {
		t.Errorf("tableII simulated %d cells, want 0", n)
	}
	figs := cells("figure11", "figure12")
	if figs == 0 {
		t.Fatal("figures 11 and 12 simulated no cells")
	}
	if n := cells("energy"); n != figs {
		t.Errorf("energy simulated %d cells, want figure 11 and 12's %d", n, figs)
	}
	if n := cells("walkprof"); n <= figs {
		t.Errorf("walkprof alone simulated %d cells, want every paper section's (more than %d)", n, figs)
	}
	if _, err := ReproduceAllOpts(ScaleSmall, Options{Sections: []string{"bogus"}}); err == nil {
		t.Error("unknown section accepted")
	}
}

// TestSystemAccessRejectsNonCanonical checks that an address at or
// above 2^48 is an error in every mode, not a panic (at 2^60 the page
// number overflows the TLB tag word) or a silent alias of the mapped
// page below it (between 2^48 and 2^58 the walk ignores the high bits).
func TestSystemAccessRejectsNonCanonical(t *testing.T) {
	for _, mode := range []Mode{Native, DirectSegment, BaseVirtualized, DualDirect, VMMDirect, GuestDirect} {
		s, err := NewSystem(Config{Mode: mode, GuestMemory: 64 << 20})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		base, err := s.Map(1 << 20)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if _, _, err := s.Access(base); err != nil {
			t.Fatalf("%v: mapped access: %v", mode, err)
		}
		before := s.Stats()
		for _, va := range []uint64{base + 1<<48, base + 1<<50, base + 1<<60, ^uint64(0)} {
			hpa, cycles, err := s.Access(va)
			if !errors.Is(err, ErrAddressRange) {
				t.Errorf("%v: Access(%#x) = (%#x, %d, %v), want ErrAddressRange", mode, va, hpa, cycles, err)
			}
		}
		if s.Stats() != before {
			t.Errorf("%v: a rejected access reached the MMU", mode)
		}
		// The last canonical byte is in range: unmapped, it faults through
		// to the guest, which refuses it, rather than being refused here.
		if _, _, err := s.Access(1<<48 - 1); err == nil || errors.Is(err, ErrAddressRange) {
			t.Errorf("%v: Access(2^48-1) = %v, want a demand-paging error", mode, err)
		}
	}
}

// TestSystemRangesRejectNonCanonical checks that MapAt, MapEager and
// Free refuse a range not inside [0, 2^48), one whose end wraps
// included, before it reaches the guest: above 2^48 the page walk
// ignores the high bits, so such a range would map, or unmap and free,
// the canonical pages below it. The mapped canonical page must stay
// mapped to the same frame, the canonical page 0x7000_0000_0000 must
// stay unmapped, and no counter may move.
func TestSystemRangesRejectNonCanonical(t *testing.T) {
	const high = 0x7000_0000_0000
	wrap := func(base uint64) uint64 { return -base + 4096 } // base+size = 4096
	for _, tc := range []struct {
		name string
		op   func(s *System, base uint64) error
	}{
		{"Free alias", func(s *System, base uint64) error { return s.Free(base+1<<48, 4096) }},
		{"Free past the end", func(s *System, base uint64) error { return s.Free(1<<48-4096, 8192) }},
		{"Free wrapping", func(s *System, base uint64) error { return s.Free(base, wrap(base)) }},
		{"MapAt alias", func(s *System, base uint64) error { return s.MapAt(1<<48+high, 4096) }},
		{"MapAt wrapping", func(s *System, base uint64) error { return s.MapAt(high, wrap(high)) }},
		{"MapEager alias", func(s *System, base uint64) error { return s.MapEager(1<<48+high, 4096, Page4K) }},
		{"MapEager top", func(s *System, base uint64) error { return s.MapEager(^uint64(0)&^0xfff, 4096, Page4K) }},
		{"MapEager wrapping", func(s *System, base uint64) error { return s.MapEager(high, wrap(high), Page4K) }},
	} {
		s, err := NewSystem(Config{Mode: BaseVirtualized, GuestMemory: 64 << 20})
		if err != nil {
			t.Fatal(err)
		}
		base, err := s.Map(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		hpa, _, err := s.Access(base)
		if err != nil {
			t.Fatal(err)
		}
		before := s.Stats()
		if err := tc.op(s, base); !errors.Is(err, ErrAddressRange) {
			t.Errorf("%s: err = %v, want ErrAddressRange", tc.name, err)
		}
		if s.Stats() != before {
			t.Errorf("%s: a rejected range moved the counters", tc.name)
		}
		if _, _, ok := s.Process().PT.Translate(base); !ok {
			t.Errorf("%s: canonical page %#x unmapped", tc.name, base)
		}
		if _, _, ok := s.Process().PT.Translate(high); ok {
			t.Errorf("%s: canonical page %#x mapped", tc.name, uint64(high))
		}
		if got, _, err := s.Access(base); err != nil || got != hpa || s.Stats().GuestFaults != before.GuestFaults {
			t.Errorf("%s: Access(%#x) = (%#x, %v) with %d new faults, want %#x and none",
				tc.name, base, got, err, s.Stats().GuestFaults-before.GuestFaults, hpa)
		}
	}
}

// TestSystemMapRejectsOversize checks that Map refuses a size whose
// region would end past 2^48, a size that wraps when rounded up to 4K
// included, with ErrAddressRange, and that a refused Map leaves the next
// Map(4096) at the base it would have had without it. The largest size
// that fits still maps, its last page is accessible, and no Map fits
// after it.
func TestSystemMapRejectsOversize(t *testing.T) {
	newSystem := func() *System {
		s, err := NewSystem(Config{Mode: BaseVirtualized, GuestMemory: 64 << 20})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	ref := newSystem()
	first, err := ref.Map(4096)
	if err != nil {
		t.Fatal(err)
	}
	largest := 1<<48 - first
	for _, tc := range []struct {
		name string
		size uint64
		ok   bool
	}{
		{"largest fit", largest, true},
		{"largest fit less one byte", largest - 1, true},
		{"one byte past", largest + 1, false},
		{"2^48", 1 << 48, false},
		{"rounds to 0", ^uint64(0), false},
		{"wraps the end", -first, false},
	} {
		s := newSystem()
		base, err := s.Map(tc.size)
		if tc.ok {
			if err != nil || base != first {
				t.Errorf("%s: Map(%#x) = (%#x, %v), want (%#x, nil)", tc.name, tc.size, base, err, first)
				continue
			}
			if _, _, err := s.Access(base + tc.size - 1); err != nil {
				t.Errorf("%s: Access(last byte %#x) = %v", tc.name, base+tc.size-1, err)
			}
			if next, err := s.Map(4096); !errors.Is(err, ErrAddressRange) {
				t.Errorf("%s: Map(4096) past the full space = (%#x, %v), want ErrAddressRange", tc.name, next, err)
			}
			continue
		}
		if !errors.Is(err, ErrAddressRange) {
			t.Errorf("%s: Map(%#x) = (%#x, %v), want ErrAddressRange", tc.name, tc.size, base, err)
		}
		next, err := s.Map(4096)
		if err != nil || next != first {
			t.Errorf("%s: next Map(4096) = (%#x, %v), want (%#x, nil)", tc.name, next, err, first)
			continue
		}
		if _, _, err := s.Access(next); err != nil {
			t.Errorf("%s: Access(%#x) after the refused Map = %v", tc.name, next, err)
		}
	}
}

// TestSystemCreatePrimaryRegionRejectsOversize holds CreatePrimaryRegion
// to Map's address-space limit: a size whose region would end past 2^48
// is refused with ErrAddressRange and moves neither the next primary
// region's base nor the next Map's.
func TestSystemCreatePrimaryRegionRejectsOversize(t *testing.T) {
	newSystem := func() *System {
		s, err := NewSystem(Config{Mode: DualDirect, GuestMemory: 64 << 20})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	firstMap, err := newSystem().Map(4096)
	if err != nil {
		t.Fatal(err)
	}
	first, err := newSystem().CreatePrimaryRegion(8 << 20)
	if err != nil {
		t.Fatal(err)
	}
	largest := 1<<48 - first

	// The largest size that fits is reserved; 64 MB of guest memory
	// cannot back it, so it fails unbacked, and no Map fits after it.
	s := newSystem()
	if _, err := s.CreatePrimaryRegion(largest); err == nil || errors.Is(err, ErrAddressRange) {
		t.Errorf("CreatePrimaryRegion(largest fit %#x) = %v, want an unbacked region", largest, err)
	}
	if next, err := s.Map(4096); !errors.Is(err, ErrAddressRange) {
		t.Errorf("Map(4096) past the full space = (%#x, %v), want ErrAddressRange", next, err)
	}

	for _, tc := range []struct {
		name string
		size uint64
	}{
		{"one byte past", largest + 1},
		{"2^48", 1 << 48},
		{"rounds to 0", ^uint64(0)},
		{"wraps the end", -first},
	} {
		s := newSystem()
		if base, err := s.CreatePrimaryRegion(tc.size); !errors.Is(err, ErrAddressRange) {
			t.Errorf("%s: CreatePrimaryRegion(%#x) = (%#x, %v), want ErrAddressRange", tc.name, tc.size, base, err)
		}
		if base, err := s.CreatePrimaryRegion(8 << 20); err != nil || base != first {
			t.Errorf("%s: next CreatePrimaryRegion(8 MB) = (%#x, %v), want (%#x, nil)", tc.name, base, err, first)
		}
		s = newSystem()
		if _, err := s.CreatePrimaryRegion(tc.size); !errors.Is(err, ErrAddressRange) {
			t.Errorf("%s: CreatePrimaryRegion(%#x) = %v, want ErrAddressRange", tc.name, tc.size, err)
		}
		next, err := s.Map(4096)
		if err != nil || next != firstMap {
			t.Errorf("%s: next Map(4096) = (%#x, %v), want (%#x, nil)", tc.name, next, err, firstMap)
			continue
		}
		if _, _, err := s.Access(next); err != nil {
			t.Errorf("%s: Access(%#x) after the refused region = %v", tc.name, next, err)
		}
	}
}

// TestSystemAccessMatchesPerEventLoop holds Access — a one-event block
// through the guest's shared demand-paging loop — to the per-event
// protocol it replaced, run on a twin System: the same (hpa, cycles)
// sequence over a stream that demand-faults, hits and walks.
func TestSystemAccessMatchesPerEventLoop(t *testing.T) {
	newTwin := func() (*System, uint64) {
		s, err := NewSystem(Config{Mode: BaseVirtualized, GuestMemory: 64 << 20})
		if err != nil {
			t.Fatal(err)
		}
		base, err := s.Map(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		return s, base
	}
	s, base := newTwin()
	ref, refBase := newTwin()
	if base != refBase {
		t.Fatalf("twins mapped at %#x and %#x", base, refBase)
	}
	x := uint64(1)
	for i := 0; i < 2000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		va := base + (x>>20)%256<<12 + (x>>8)&0xfff
		hpa, cycles, err := s.Access(va)
		if err != nil {
			t.Fatalf("access %d: %v", i, err)
		}
		var want mmu.Result
		for attempt := 0; ; attempt++ {
			if attempt == 3 {
				t.Fatalf("access %d: reference still faulting", i)
			}
			res, fault := ref.m.MMU.Translate(va)
			if fault == nil {
				want = res
				break
			}
			if fault.Kind != mmu.FaultGuest {
				t.Fatalf("access %d: %v", i, fault)
			}
			if err := ref.m.Proc.HandleFault(fault.Addr); err != nil {
				t.Fatalf("access %d: %v", i, err)
			}
		}
		if hpa != want.HPA || cycles != want.Cycles {
			t.Fatalf("access %d at %#x: got (%#x, %d), per-event loop (%#x, %d)", i, va, hpa, cycles, want.HPA, want.Cycles)
		}
	}
	if got, want := s.Stats(), ref.Stats(); got != want {
		t.Errorf("Stats differ\nAccess:    %+v\nper-event: %+v", got, want)
	}
	if s.Stats().GuestFaults == 0 {
		t.Error("stream took no demand faults")
	}
}
