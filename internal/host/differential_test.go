// The host-scale differential suite: every guest of a four-guest
// consolidated host is mirrored in the oracle's flat reference model,
// per-guest counter identities must hold, and the dimensional ordering
// Dual ≤ VMM ≤ Base survives the address streams the churned host
// actually produced.

package host

import (
	"testing"

	"vdirect/internal/addr"
	"vdirect/internal/mmu"
	"vdirect/internal/oracle"
	"vdirect/internal/physmem"
	"vdirect/internal/trace"
	"vdirect/internal/workload"
)

// tightConfig sizes the host so a four-guest admission crosses the
// fragmentation knee: early guests get Dual Direct, later ones fall
// back to Base Virtualized over scattered frames.
func tightConfig(density int) Config {
	cfg := testConfig(density)
	gs := cfg.GuestSize()
	// Contiguous runs for all but the last guest, plus half a guest of
	// slack: the final admission must fall back to scattered frames.
	cfg.HostMemory = addr.AlignUp(uint64(density-1)*gs+gs/2+(16<<20), addr.PageSize4K)
	return cfg
}

func TestHostDifferentialFourGuests(t *testing.T) {
	cfg := tightConfig(4)
	s, err := NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run() // Run cross-checks every guest against the oracle
	if err != nil {
		t.Fatal(err)
	}

	if res.DirectGuests == 0 {
		t.Error("tight host admitted no Dual Direct guest; knee config broken")
	}
	if res.DirectGuests == 4 {
		t.Error("tight host admitted every guest Dual Direct; no contention modeled")
	}

	// Per-guest identities, asserted here explicitly (Run also enforces
	// them, but the test should fail loudly on its own).
	for _, g := range s.Guests {
		if err := oracle.CheckIdentities(g.MMU.Stats()); err != nil {
			t.Errorf("%s: %v", g.Name, err)
		}
		st := g.MMU.Stats()
		if st.Accesses == 0 {
			t.Errorf("%s: no accesses", g.Name)
		}
		if g.Direct && st.SegmentChecks == 0 {
			t.Errorf("%s: direct guest made no segment checks", g.Name)
		}
		if !g.Direct && st.NestedWalks == 0 && st.NestedTLBHits == 0 {
			t.Errorf("%s: paging guest exercised no nested dimension", g.Name)
		}
	}

	// A second, explicit cross-check after the run's own (the state is
	// stable once replay and churn are done, so this must still hold).
	if err := s.CrossCheck(); err != nil {
		t.Fatal(err)
	}

	// Dimensional ordering over the streams this host produced: sample
	// each guest's tenant address space and require Dual ≤ VMM ≤ Base
	// on the same trace.
	rng := trace.NewRand(7)
	var vas []uint64
	for _, g := range s.Guests {
		for _, w := range g.workloads {
			prim := w.PrimaryRegion()
			for i := 0; i < 64; i++ {
				vas = append(vas, prim.Start+rng.Uint64n(prim.Size))
			}
		}
	}
	if err := oracle.CheckModeMonotonicity(vas); err != nil {
		t.Fatal(err)
	}
}

// TestCrossCheckCatchesStaleNestedTLB shows the cross-check is not
// vacuous: moving a probed page's nested mapping without flushing the
// guest's nested TLB state leaves the MMU translating to the old frame,
// and the oracle, which reads the nested table, must disagree.
func TestCrossCheckCatchesStaleNestedTLB(t *testing.T) {
	s, err := NewSim(tightConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	g := s.Guests[len(s.Guests)-1]
	if g.Mode != mmu.ModeBaseVirtualized {
		t.Fatalf("last guest admitted %v, want the Base Virtualized fallback", g.Mode)
	}
	va := s.probes(g, 0)[0]
	if err := g.Sched.SwitchTo(0, g.MMU); err != nil {
		t.Fatal(err)
	}
	if _, fault := g.MMU.Translate(va); fault != nil {
		t.Fatalf("probe VA %#x faults: %v", va, fault)
	}
	gpa, _, ok := g.Procs[0].PT.Translate(va)
	if !ok {
		t.Fatalf("probe VA %#x has no guest mapping", va)
	}
	f, err := s.Host.Mem.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.VM.NPT.Remap(addr.AlignDown(gpa, addr.PageSize4K), physmem.FrameToAddr(f)); err != nil {
		t.Fatal(err)
	}
	if err := s.CrossCheck(); err == nil {
		t.Fatal("cross-check passed with a stale nested translation in the TLB")
	}
}

// TestEscapeFilterCostAtDensity checks the §V story the host layer
// exists to measure: host services (ballooning, retirement) on a
// segment guest show up as escape-filter traffic.
func TestEscapeFilterCostAtDensity(t *testing.T) {
	cfg := tightConfig(4)
	cfg.Seed = 99
	s, err := NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.EscapeProbes == 0 {
		t.Fatal("no escape probes: segment guests never consulted the filter")
	}
	var escaped int
	for _, g := range res.Guests {
		if g.Direct {
			escaped += g.EscapedPages
		} else if g.EscapedPages != 0 {
			t.Errorf("guest %d has escaped pages without a segment", g.Guest)
		}
	}
	if escaped == 0 {
		t.Error("churn produced no escaped pages on any segment guest")
	}
}

// TestBalloonTugOfWar drives admission past what free host memory can
// back, requiring the host to squeeze earlier guests.
func TestBalloonTugOfWar(t *testing.T) {
	cfg := testConfig(3)
	gs := cfg.GuestSize()
	// Fits two guests comfortably; the third only if earlier guests
	// give memory back.
	cfg.HostMemory = addr.AlignUp(gs*5/2+gs/4+(32<<20), addr.PageSize4K)
	s, err := NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var balloons uint64
	for _, g := range s.Guests {
		balloons += g.Balloons
	}
	if balloons == 0 {
		t.Fatal("no guest was ballooned during overcommitted admission")
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestWorkloadsExist pins the workload names the suite depends on.
func TestWorkloadsExist(t *testing.T) {
	for _, name := range []string{"gups", "memcached"} {
		if !workload.Exists(name) {
			t.Fatalf("workload %q missing", name)
		}
	}
}
