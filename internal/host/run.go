// The replay phase and the oracle cross-check. Guests advance in
// lock-step quanta under sched.RunSharded — each guest is private to
// one shard goroutine per round — and the policy engine churns shared
// host state only at the serial barrier between rounds.

package host

import (
	"fmt"
	"slices"

	"vdirect/internal/addr"
	"vdirect/internal/mmu"
	"vdirect/internal/oracle"
	"vdirect/internal/pagetable"
	"vdirect/internal/sched"
	"vdirect/internal/trace"
)

// Run replays every tenant of every guest to completion, with policy
// churn at each quantum barrier, then verifies owner accounting and —
// unless disabled — cross-checks every guest against the oracle.
// Results are byte-identical at any Cfg.Shards.
func (s *Sim) Run() (Result, error) {
	err := sched.RunSharded(s.Cfg.Shards, len(s.Guests),
		func(i int) (bool, error) {
			return s.Guests[i].step()
		},
		func(round int) error {
			return s.churn(s.Cfg.RoundChurn)
		})
	if err != nil {
		return Result{}, err
	}

	// Commit walk samples in guest order (the per-guest samplers are
	// private to their shard during replay), then detach them so the
	// cross-check's probe traffic is never sampled.
	if s.prof != nil {
		for _, sampler := range s.samplers {
			s.prof.Commit(sampler)
		}
		for _, g := range s.Guests {
			g.MMU.SetWalkSampler(nil)
		}
	}

	res := s.collect()
	if err := s.CheckAccounting(); err != nil {
		return Result{}, err
	}
	for _, g := range s.Guests {
		if err := checkStatsIdentities(g.Name, g.MMU.Stats()); err != nil {
			return Result{}, err
		}
	}
	if !s.Cfg.SkipCrossCheck {
		if err := s.CrossCheck(); err != nil {
			return Result{}, err
		}
	}
	return res, nil
}

// checkStatsIdentities asserts the counter identities every MMU must
// satisfy (the oracle harness's CheckStats invariants), per guest.
func checkStatsIdentities(name string, st mmu.Stats) error {
	if st.Accesses != st.L1Hits+st.L1Misses {
		return fmt.Errorf("host: %s: accesses %d != L1 hits %d + misses %d",
			name, st.Accesses, st.L1Hits, st.L1Misses)
	}
	if st.L1Misses != st.ZeroDWalks+st.L2Hits+st.Walks {
		return fmt.Errorf("host: %s: L1 misses %d != 0D %d + L2 hits %d + walks %d",
			name, st.L1Misses, st.ZeroDWalks, st.L2Hits, st.Walks)
	}
	if st.EscapeTaken > st.EscapeProbes {
		return fmt.Errorf("host: %s: escapes taken %d > probes %d",
			name, st.EscapeTaken, st.EscapeProbes)
	}
	if st.GuestFaults+st.NestedFaults > st.Walks {
		return fmt.Errorf("host: %s: faults %d+%d > walks %d",
			name, st.GuestFaults, st.NestedFaults, st.Walks)
	}
	return nil
}

// crossCheckProbes is how many virtual addresses the differential
// check probes per tenant.
const crossCheckProbes = 256

// CrossCheck mirrors every guest in the oracle's flat reference model
// and compares translations over a deterministic probe set: for each
// tenant, the entries of its page table and of the guest's nested
// table that the probes read are copied into the model, segments
// copied register-for-register, and the exact escaped-page set
// installed where the production stack has a Bloom filter. Every probe
// must agree on fault dimension and — for successful translations —
// the final host physical address. Bloom false positives cannot
// diverge here: a false-positive escape takes the nested walk, which
// maps the same address the segment computes.
func (s *Sim) CrossCheck() error {
	for _, g := range s.Guests {
		for t := range g.Procs {
			if err := s.crossCheckTenant(g, t); err != nil {
				return err
			}
		}
	}
	return nil
}

// probes returns the tenant's probe set. It is seeded by (guest,
// tenant) alone, so it is identical across shard counts and host
// parallelism.
func (s *Sim) probes(g *Guest, t int) []uint64 {
	// The workload's primary region (proc.PrimaryRegion is only set on
	// the segment-backed path; Base tenants map the same range by VA).
	prim := g.workloads[t].PrimaryRegion()
	rng := trace.NewRand(s.Cfg.Seed ^ uint64(g.Index)<<16 ^ uint64(t)<<8 ^ 0x0CA1)
	vas := make([]uint64, crossCheckProbes)
	for i := range vas {
		vas[i] = prim.Start + rng.Uint64n(prim.Size)
		if i%8 == 7 {
			// Every eighth probe leaves the primary region: stack pages,
			// and addresses likely unmapped (both stacks must fault).
			vas[i] = rng.Uint64n(1 << 40)
		}
	}
	return vas
}

// mirror builds the tenant's reference model. Model.Translate reads
// only Guest[va>>12] and Nested[gpa>>12], so only the guest entries at
// the probe pages and the nested entries at the gPA pages they reach
// are installed, not the tables' every leaf.
func (s *Sim) mirror(g *Guest, t int, vas []uint64) *oracle.Model {
	proc := g.Procs[t]
	model := oracle.NewModel()
	model.Virtualized = true
	if proc.Seg.Enabled() {
		model.GuestSeg = oracle.Segment{
			Base: proc.Seg.Base, Limit: proc.Seg.Limit, Offset: proc.Seg.Offset}
	}
	if seg := g.VM.VMMSegment(); seg.Enabled() {
		model.VMMSeg = oracle.Segment{
			Base: seg.Base, Limit: seg.Limit, Offset: seg.Offset}
	}
	pages := make([]uint64, 0, len(vas))
	for _, va := range vas {
		pages = append(pages, va>>addr.PageShift4K)
	}
	mirrorPages(proc.PT, pages, model.Guest)
	pages = pages[:0]
	for _, va := range vas {
		if gs := model.GuestSeg; gs.Enabled() && gs.Covers(va) {
			pages = append(pages, gs.Translate(va)>>addr.PageShift4K)
		}
		if mp, ok := model.Guest[va>>addr.PageShift4K]; ok {
			pages = append(pages, mp.Target)
		}
	}
	mirrorPages(g.VM.NPT, pages, model.Nested)
	for pfn := range g.escaped {
		model.EscapedVMM[pfn] = true
	}
	return model
}

// mirrorPages copies into m, at 4K grain, the entries of t that map
// the given page numbers, in one ascending traversal of t's leaves
// that stops past the last page.
func mirrorPages(t *pagetable.Table, pages []uint64, m map[uint64]oracle.Mapping) {
	slices.Sort(pages)
	pages = slices.Compact(pages)
	i := 0
	t.VisitLeaves(func(va, pa uint64, sz addr.PageSize) bool {
		vp, n := va>>addr.PageShift4K, sz.Bytes()>>addr.PageShift4K
		for i < len(pages) && pages[i] < vp {
			i++
		}
		for ; i < len(pages) && pages[i] < vp+n; i++ {
			m[pages[i]] = oracle.Mapping{Target: pa>>addr.PageShift4K + pages[i] - vp, Size: sz}
		}
		return i < len(pages)
	})
}

// crossCheckTenant probes one tenant's address space through both
// stacks.
func (s *Sim) crossCheckTenant(g *Guest, t int) error {
	vas := s.probes(g, t)
	model := s.mirror(g, t, vas)
	if err := g.Sched.SwitchTo(t, g.MMU); err != nil {
		return err
	}
	for _, va := range vas {
		pred := model.Translate(va)
		res, fault := g.MMU.Translate(va)
		if (fault != nil) != (pred.Fault != oracle.FaultNone) {
			return fmt.Errorf("host: %s tenant %d: VA %#x: mmu fault %v, oracle fault %v",
				g.Name, t, va, fault, pred.Fault)
		}
		if fault != nil {
			mmuDim := oracle.FaultGuest
			if fault.Kind == mmu.FaultNested {
				mmuDim = oracle.FaultNested
			}
			if mmuDim != pred.Fault {
				return fmt.Errorf("host: %s tenant %d: VA %#x: mmu fault dim %v, oracle %v",
					g.Name, t, va, fault.Kind, pred.Fault)
			}
			continue
		}
		if res.HPA != pred.HPA {
			return fmt.Errorf("host: %s tenant %d: VA %#x: mmu hPA %#x, oracle %#x",
				g.Name, t, va, res.HPA, pred.HPA)
		}
	}
	return nil
}
