package mmu

import (
	"testing"

	"vdirect/internal/addr"
	"vdirect/internal/segment"
	"vdirect/internal/telemetry"
	"vdirect/internal/telemetry/walkprof"
)

// fuzzReader decodes operand bytes; reads past the end yield zero so
// truncated inputs stay valid.
type fuzzReader struct {
	data []byte
	pos  int
}

func (r *fuzzReader) next() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

// FuzzTranslateStats drives randomized register configurations,
// mappings, escapes, invalidations and access streams through a fully
// cached MMU, asserting per access that the result matches the
// cache-free reference composition, and at the end that the counter
// identities hold: every access is exactly one of L1 hit/miss, every
// L1 miss resolves as exactly one of 0D/L2 hit/walk, references stay
// within the 24-per-walk mode-table bound, the escape filter is probed
// at least as often as it fires, every counted reference probes the
// PTE cache once, and WalkCycles is the cost identity over the counts
// and the PTE cache's misses.
//
// Each script runs twice, plain and with a WalkProbe plus a period-1
// sampler installed. Observation must not perturb the run (equal
// Stats), and the observers must reconstruct the counters exactly: the
// probe sees every walk (faulted ones included) with its references
// and cycles, and the sampler records every miss that did not fault,
// under its §VII class.
func FuzzTranslateStats(f *testing.F) {
	f.Add([]byte{0x00, 1, 0, 1, 1, 0, 2, 2, 0, 3, 4, 0, 5})
	f.Add([]byte{0x01, 2, 10, 3, 20, 0, 1, 0, 2, 4, 0, 0, 1, 5, 0, 3})
	f.Add([]byte{0x03, 0, 0, 2, 1, 3, 2, 0, 4, 1, 9, 0, 8, 5, 7})
	// Guest faults around a mapped access: 0x480000 and 0x480010 lie
	// past the 64 mapped pages.
	f.Add([]byte{0x00, 0, 0x80, 0, 0, 1, 0, 0, 0x80, 0x10})
	// A nonzero L2 probe cost, with an L2 hit after a flush and a VMM
	// segment's checks.
	f.Add([]byte{0x04, 0, 1, 0, 2, 0, 1, 0, 2, 7, 0, 0, 1, 5, 0, 0, 1, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<13 {
			return
		}
		st, m, _ := runStatsScript(t, data, nil, nil)
		// The identity prices each counted reference by one PTE-cache
		// probe; the script never resets, so the lifetime counts agree.
		if refs, _ := m.ptc.Stats(); refs != st.WalkMemRefs {
			t.Fatalf("%d PTE-cache probes, %d WalkMemRefs", refs, st.WalkMemRefs)
		}
		if want := costIdentity(m.cfg, st, m.PTECacheMisses()); st.WalkCycles != want {
			t.Fatalf("WalkCycles %d != cost identity %d", st.WalkCycles, want)
		}
		if st.Accesses != st.L1Hits+st.L1Misses {
			t.Fatalf("%d accesses != %d L1 hits + %d misses", st.Accesses, st.L1Hits, st.L1Misses)
		}
		if st.L1Misses != st.ZeroDWalks+st.L2Hits+st.Walks {
			t.Fatalf("%d L1 misses != %d 0D + %d L2 + %d walks", st.L1Misses, st.ZeroDWalks, st.L2Hits, st.Walks)
		}
		if st.WalkMemRefs > st.Walks*24 {
			t.Fatalf("%d refs exceed the 24-per-walk bound over %d walks", st.WalkMemRefs, st.Walks)
		}
		if st.EscapeTaken > st.EscapeProbes {
			t.Fatalf("escape taken %d > probes %d", st.EscapeTaken, st.EscapeProbes)
		}
		if st.GuestFaults+st.NestedFaults > st.Walks {
			t.Fatalf("more faults (%d+%d) than walks (%d)", st.GuestFaults, st.NestedFaults, st.Walks)
		}

		probe := new(telemetry.WalkProbe)
		prof := walkprof.Enable(1)
		prof.Stop() // only the sampler is needed, not the global profile
		smp := prof.Sampler("fuzz", 0, 0)
		obs, _, faulted := runStatsScript(t, data, probe, smp)
		if obs != st {
			t.Fatalf("observed run's stats differ:\n plain    %+v\n observed %+v", st, obs)
		}
		reg := telemetry.NewRegistry()
		reg.Histogram("refs").Merge(&probe.Refs)
		reg.Histogram("cycles").Merge(&probe.Cycles)
		hists := reg.Snapshot().Histograms
		if n := probe.Refs.Count(); n != st.Walks {
			t.Fatalf("probe observed %d walks, stats %d", n, st.Walks)
		}
		if sum := hists["refs"].Sum; sum != st.WalkMemRefs {
			t.Fatalf("probe refs sum %d, stats %d", sum, st.WalkMemRefs)
		}
		var zerod, l2hits, walks, resolvedCycles uint64
		for _, s := range smp.Samples() {
			switch s.Class {
			case walkprof.ClassZeroD:
				zerod++
				resolvedCycles += s.Cycles
			case walkprof.ClassL2Hit:
				l2hits++
				resolvedCycles += s.Cycles
			default:
				walks++
			}
		}
		if zerod != st.ZeroDWalks || l2hits != st.L2Hits || walks != st.Walks-faulted {
			t.Fatalf("samples: %d 0D, %d L2 hits, %d walks; stats: %d 0D, %d L2 hits, %d walks - %d faulted",
				zerod, l2hits, walks, st.ZeroDWalks, st.L2Hits, st.Walks, faulted)
		}
		if cyc := hists["cycles"].Sum + resolvedCycles; cyc != st.WalkCycles {
			t.Fatalf("probe cycles + 0D/L2-hit sample cycles = %d, stats %d", cyc, st.WalkCycles)
		}
	})
}

// runStatsScript executes one FuzzTranslateStats script, with the given
// observers installed when non-nil, and returns the final Stats, the MMU
// and the number of accesses that faulted.
func runStatsScript(t *testing.T, data []byte, probe *telemetry.WalkProbe, smp *walkprof.Sampler) (Stats, *MMU, uint64) {
	r := &fuzzReader{data: data}
	cfg := Config{}
	flags := r.next()
	if flags&1 != 0 {
		cfg.DisablePWC = true
	}
	if flags&2 != 0 {
		cfg.DisableNestedTLB = true
	}
	if flags&4 != 0 {
		cfg.L2HitCycles = 3
	}
	e, err := buildEnv(8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if probe != nil {
		e.m.SetWalkProbe(probe)
	}
	if smp != nil {
		e.m.SetWalkSampler(smp)
	}
	const span = uint64(2 << 20) // touched gVA window at 0x400000
	// A paged arena and a candidate segment window share the span so
	// segment and paging translations interleave.
	for i := uint64(0); i < 64; i++ {
		gva := 0x400000 + i<<addr.PageShift4K
		gpa := 0x200000 + i<<addr.PageShift4K
		if err := e.gPT.Map(gva, gpa, addr.Page4K); err != nil {
			t.Fatal(err)
		}
	}
	var faulted uint64
	for r.pos < len(r.data) {
		op := r.next()
		switch op % 8 {
		case 0, 1, 2, 3: // access
			gva := 0x400000 + (uint64(r.next())<<12|uint64(r.next()))%span
			want, wantOK := reference(e, gva)
			res, fault := e.m.Translate(gva)
			if wantOK != (fault == nil) {
				t.Fatalf("va %#x: fault=%v, reference ok=%v", gva, fault, wantOK)
			}
			if wantOK && res.HPA != want {
				t.Fatalf("va %#x: got %#x, reference %#x", gva, res.HPA, want)
			}
			if fault != nil {
				faulted++
			}
		case 4: // reprogram guest segment over part of the window
			pages := uint64(r.next()) % 65
			e.m.SetGuestSegment(segment.NewRegisters(0x400000, 0x600000, pages<<addr.PageShift4K))
			e.m.FlushTLBs()
			// The segment targets [0x600000,...): back it in the nested
			// dimension implicitly (buildEnv maps all guest memory).
		case 5: // reprogram VMM segment
			if r.next()&1 == 0 {
				e.m.SetVMMSegment(segment.NewRegisters(0, e.hostBase, e.guestSize))
			} else {
				e.m.SetVMMSegment(segment.Disabled())
			}
			e.m.FlushTLBs()
		case 6: // escape inserts (guest and VMM filters)
			b := uint64(r.next())
			e.m.GuestEscapeFilter().Insert((0x400000 >> addr.PageShift4K) + b%512)
			e.m.VMMEscapeFilter().Insert(b % (e.guestSize >> addr.PageShift4K))
			e.m.InvalidateNested()
		case 7: // targeted invalidation
			gva := 0x400000 + (uint64(r.next())%512)<<addr.PageShift4K
			e.m.InvalidatePage(gva, addr.Page4K)
		}
	}
	return e.m.Stats(), e.m, faulted
}
