// Package mmu implements the paper's proposed address-translation
// hardware: the Figure 5(a) flow chart and Figure 5(b) page-walk state
// machines, with cycle and memory-reference accounting.
//
// The hardware is mode-less in the same sense as the proposal: behaviour
// is determined entirely by which segment register sets are enabled
// (BASE < LIMIT) and whether nested translation is active. The six
// paper modes are register configurations:
//
//	Native                 !virtualized, no segments
//	Direct Segment         !virtualized, guest segment (VA→PA)
//	Base Virtualized        virtualized, no segments      (2D walk, ≤24 refs)
//	Dual Direct             virtualized, both segments    (0D walk, 0 refs)
//	VMM Direct              virtualized, VMM segment      (1D walk, ≤4 refs)
//	Guest Direct            virtualized, guest segment    (1D walk, ≤4 refs)
//
// plus the post-paper FlatNested configuration (virtualized with the
// flat-walker flag set; see scheme_flat.go). Each configuration's
// miss-path behaviour lives in a registered Scheme (see scheme.go);
// register writes re-derive the active scheme, and the translation
// path dispatches through it without switching on mode.
//
// Escape filters (§V) hang off each segment set; a covered page that
// hits the filter falls back to the paging path for that dimension.
package mmu

import (
	"fmt"

	"vdirect/internal/addr"
	"vdirect/internal/escape"
	"vdirect/internal/pagetable"
	"vdirect/internal/ptecache"
	"vdirect/internal/segment"
	"vdirect/internal/telemetry"
	"vdirect/internal/telemetry/walkprof"
	"vdirect/internal/tlb"
	"vdirect/internal/trace"
)

// Config sets the simulated hardware's geometry and latencies.
type Config struct {
	// L1 geometry; zero value selects SandyBridgeL1.
	L1 tlb.Geometry
	// L2Entries/L2Ways for the shared second-level TLB (default 512/4).
	L2Entries, L2Ways int
	// PTECache models the data-cache path of walk references.
	PTECache ptecache.Config
	// SegmentCheckCycles is Δ, the cost of one base-bound check
	// (paper's estimate: 1 cycle per check).
	SegmentCheckCycles uint64
	// L2HitCycles is charged for L2 TLB probes on the L1-miss path.
	// Default 0: the paper's metric is page-walk duration (perf's
	// WALK_DURATION counters), which starts after the L2 TLB misses;
	// probe latency is identical across configurations and cancels out
	// of the overhead comparison. Set non-zero to model it anyway.
	L2HitCycles uint64
	// NestedProbeCycles is charged per nested-TLB probe performed
	// inside a 2D walk — that latency is part of walk duration.
	// Default 7.
	NestedProbeCycles uint64
	// DisablePWC turns off the paging-structure caches (ablation).
	DisablePWC bool
	// DisableNestedTLB stops nested translations from being cached in
	// the shared L2 (ablation: isolates the capacity-erosion effect).
	DisableNestedTLB bool
	// EscapeFilterBits sizes the escape filters (default 256, the
	// paper's; must be 4 × a power of two).
	EscapeFilterBits int
}

func (c Config) withDefaults() Config {
	zero := tlb.Geometry{}
	if c.L1 == zero {
		c.L1 = tlb.SandyBridgeL1
	}
	if c.L2Entries == 0 {
		c.L2Entries, c.L2Ways = 512, 4
	}
	if c.PTECache.Lines == 0 {
		c.PTECache = ptecache.Default
	}
	if c.SegmentCheckCycles == 0 {
		c.SegmentCheckCycles = 1
	}
	if c.NestedProbeCycles == 0 {
		c.NestedProbeCycles = 7
	}
	if c.EscapeFilterBits == 0 {
		c.EscapeFilterBits = escape.FilterBits
	}
	return c
}

// FaultKind says which translation dimension faulted.
type FaultKind uint8

// Fault dimensions.
const (
	FaultGuest  FaultKind = iota // gVA not mapped by guest page table
	FaultNested                  // gPA not mapped by nested page table
)

// Fault is returned when translation cannot complete; the OS/VMM layer
// services it (demand paging) and the access is retried.
type Fault struct {
	Kind FaultKind
	// Addr is the faulting gVA (FaultGuest) or gPA (FaultNested).
	Addr uint64
}

func (f *Fault) Error() string {
	which := "guest"
	if f.Kind == FaultNested {
		which = "nested"
	}
	return fmt.Sprintf("mmu: %s page fault at %#x", which, f.Addr)
}

// Stats are the event counts the evaluation reads — the simulator's
// replacement for perf counters plus BadgerTrap (§VII).
type Stats struct {
	Accesses uint64
	L1Hits   uint64
	L1Misses uint64
	L2Hits   uint64
	L2Misses uint64

	// ZeroDWalks counts L1 misses resolved purely by segment register
	// sets (Dual Direct's two-check 0D path, and the unvirtualized
	// Direct Segment fast path). Every L1 miss resolves as exactly one
	// of ZeroDWalks, L2Hits, or Walks.
	ZeroDWalks uint64
	// Walks counts invocations of the page-walk state machine.
	Walks uint64
	// WalkMemRefs counts page-table memory references performed.
	WalkMemRefs uint64
	// WalkCycles is the cycles charged to TLB-miss handling, which
	// MMU.Stats prices from the other counts (walkCycles).
	WalkCycles uint64

	SegmentChecks   uint64
	GuestSegHits    uint64 // gVA→gPA resolved by guest segment
	VMMSegHits      uint64 // gPA→hPA resolved by VMM segment
	NestedTLBHits   uint64
	NestedTLBMisses uint64
	NestedWalks     uint64
	EscapeProbes    uint64
	EscapeTaken     uint64 // filter said "escape" (member or false positive)
	GuestFaults     uint64
	NestedFaults    uint64

	// Table I / Table IV classification of L1 misses by segment
	// coverage of the address (measured on every L1 miss, like the
	// paper's BadgerTrap classification of DTLB misses).
	MissBoth      uint64 // in guest and VMM segments (F_DD)
	MissVMMOnly   uint64 // F_VD
	MissGuestOnly uint64 // F_GD
	MissNeither   uint64
}

// MMU is one simulated translation pipeline (one hardware context).
type MMU struct {
	cfg  Config
	l1   *tlb.L1
	l2   *tlb.L2
	pwc  *tlb.PWC // guest-dimension paging-structure caches
	npwc *tlb.PWC // nested-dimension paging-structure caches
	ptc  *ptecache.Cache

	virtualized bool
	flatNested  bool
	// scheme is the active translation scheme, re-derived from the
	// register configuration on every register write (updateScheme) so
	// the translation path is one interface call, no mode switch.
	scheme Scheme
	segs   segment.Pair
	// escV escapes pages from the VMM segment (Dual/VMM Direct); escG
	// escapes pages from the guest segment (Direct Segment mode).
	escV *escape.Filter
	escG *escape.Filter

	// gPT translates the first dimension: gVA→gPA (or VA→PA native).
	gPT *pagetable.Table
	// nPT translates the second dimension: gPA→hPA. nil when native.
	nPT *pagetable.Table

	stats    Stats
	missBase uint64 // the PTE cache's miss count at the last ResetStats

	// probe, when non-nil, receives every page walk's memory-reference
	// and cycle deltas for telemetry histograms; sampler, when non-nil,
	// is offered every L1 miss and keeps a deterministic 1-in-N sample
	// (walkprof, the simulated BadgerTrap). Both are single-goroutine
	// state like the rest of the MMU, fed only by miss. observed caches
	// "either is installed", so an unobserved miss pays one branch and
	// an L1 hit nothing.
	probe    *telemetry.WalkProbe
	sampler  *walkprof.Sampler
	observed bool
	// asid is the active address-space tag stamped into samples; it
	// tracks ContextSwitchASID and stays 0 for single-process cells.
	asid uint16
	// walkClass/walkSize are the last resolved miss's §VII class and
	// effective page size, set by the path that resolved it (the 0D
	// paths, probeL2, nativeWalk, classifyMiss and insertComposite) and
	// read by miss for the sampler and by missResult for the Result.
	walkClass walkprof.MissClass
	walkSize  addr.PageSize

	// One-entry last-page cache in front of the L1: the 4K page of the
	// most recent successful translation. A hit here is exactly the set
	// of accesses whose immediate predecessor touched the same 4K page —
	// the previous translation inserted (or refreshed) a covering L1
	// entry and nothing ran in between, so the real L1 would hit too and
	// the entry is already MRU in its set. Skipping the probe therefore
	// changes no stats and no replacement decision; every TLB-mutating
	// operation drops the entry.
	lastValid bool
	lastVBase uint64 // 4K-aligned gVA
	lastHBase uint64 // 4K-aligned hPA

}

// New builds an MMU with the given hardware configuration.
func New(cfg Config) *MMU {
	cfg = cfg.withDefaults()
	m := &MMU{
		cfg:  cfg,
		l1:   tlb.NewL1(cfg.L1),
		l2:   tlb.NewL2(cfg.L2Entries, cfg.L2Ways),
		pwc:  tlb.NewPWC(),
		npwc: tlb.NewPWC(),
		ptc:  ptecache.New(cfg.PTECache),
		escV: escape.NewSized(cfg.EscapeFilterBits, escape.NumHashes, 1),
		escG: escape.NewSized(cfg.EscapeFilterBits, escape.NumHashes, 2),
	}
	m.updateScheme()
	return m
}

// SetGuestPageTable installs the active first-dimension page table.
func (m *MMU) SetGuestPageTable(t *pagetable.Table) {
	m.gPT = t
	m.lastValid = false
}

// SetNestedPageTable installs the second-dimension table and enables
// virtualized (two-level) translation. Passing nil returns to native.
func (m *MMU) SetNestedPageTable(t *pagetable.Table) {
	m.nPT = t
	m.virtualized = t != nil
	m.lastValid = false
	m.updateScheme()
}

// SetFlatNested enables flattened nested page tables: while
// virtualized, the FlatNested scheme's 2D walk charges each interior
// guest level one flat-table reference instead of a nested translation
// (see scheme_flat.go). The flag is latent outside virtualized operation
// and composes with any segment configuration.
func (m *MMU) SetFlatNested(on bool) {
	m.flatNested = on
	m.lastValid = false
	m.updateScheme()
}

// FlatNested reports whether the flat walker flag is set.
func (m *MMU) FlatNested() bool { return m.flatNested }

// SetGuestSegment programs BASE_G/LIMIT_G/OFFSET_G.
func (m *MMU) SetGuestSegment(r segment.Registers) {
	m.segs.Guest = r
	m.lastValid = false
	m.updateScheme()
}

// SetVMMSegment programs BASE_V/LIMIT_V/OFFSET_V.
func (m *MMU) SetVMMSegment(r segment.Registers) {
	m.segs.VMM = r
	m.lastValid = false
	m.updateScheme()
}

// GuestSegment returns the current guest segment registers.
func (m *MMU) GuestSegment() segment.Registers { return m.segs.Guest }

// VMMSegment returns the current VMM segment registers.
func (m *MMU) VMMSegment() segment.Registers { return m.segs.VMM }

// VMMEscapeFilter exposes the filter guarding the VMM segment.
func (m *MMU) VMMEscapeFilter() *escape.Filter { return m.escV }

// GuestEscapeFilter exposes the filter guarding the guest segment.
func (m *MMU) GuestEscapeFilter() *escape.Filter { return m.escG }

// Mode reports the active scheme's name, derived from the current
// register configuration.
func (m *MMU) Mode() Mode { return m.scheme.Name() }

// ActiveScheme returns the scheme the register configuration selects.
func (m *MMU) ActiveScheme() Scheme { return m.scheme }

// SetWalkProbe installs (or, with nil, removes) a per-walk telemetry
// probe. The probe observes each page walk's memory-reference count and
// cycle cost, faulted walks included, as deltas of the MMU's own
// counters, so it cannot drift from the reported statistics.
func (m *MMU) SetWalkProbe(p *telemetry.WalkProbe) {
	m.probe = p
	m.observed = m.probe != nil || m.sampler != nil
}

// SetWalkSampler installs (or, with nil, removes) a walkprof sampler.
// Every L1 miss — segment fast path, L2 hit, or walk — is offered to it
// with the miss's classification and exact cost deltas; the sampler
// decides (deterministically) which to record. A faulted miss is never
// recorded: the access retries after service and the retry's
// resolution is what gets sampled.
func (m *MMU) SetWalkSampler(s *walkprof.Sampler) {
	m.sampler = s
	m.observed = m.probe != nil || m.sampler != nil
}

// Stats returns a copy of the counters, with WalkCycles priced from
// them: the one place WalkCycles is assigned.
func (m *MMU) Stats() Stats {
	st := m.stats
	st.WalkCycles = m.walkCycles()
	return st
}

// walkCycles prices the counts since ResetStats with §VII's linear
// cost model; X of the WalkMemRefs references missed the PTE cache.
func (m *MMU) walkCycles() uint64 {
	c, st, x := &m.cfg, &m.stats, m.PTECacheMisses()
	return c.SegmentCheckCycles*st.SegmentChecks +
		c.L2HitCycles*(st.L2Hits+st.L2Misses) + c.NestedProbeCycles*st.NestedTLBHits +
		c.PTECache.HitCycles*(st.WalkMemRefs-x) + c.PTECache.MissCycles*x
}

// ResetStats zeroes the counters (after warmup).
func (m *MMU) ResetStats() {
	m.stats = Stats{}
	_, m.missBase = m.ptc.Stats()
}

// PTECacheMisses returns X, the references since ResetStats that missed
// the PTE cache (and cost MissCycles, the rest HitCycles).
func (m *MMU) PTECacheMisses() uint64 {
	_, x := m.ptc.Stats()
	return x - m.missBase
}

// FlushTLBs empties all translation caches, as a full CR3 write +
// nested invalidation would.
func (m *MMU) FlushTLBs() {
	m.lastValid = false
	m.l1.Flush()
	m.l2.Flush()
	m.pwc.Flush()
	m.npwc.Flush()
}

// ContextSwitch models a guest process switch: the guest page table and
// guest segment registers change; guest-visible translations flush.
func (m *MMU) ContextSwitch(gpt *pagetable.Table, guestSeg segment.Registers) {
	m.lastValid = false
	m.gPT = gpt
	m.segs.Guest = guestSeg
	m.updateScheme()
	m.l1.Flush()
	m.l2.Flush() // no PCID on the modeled machine
	m.pwc.Flush()
}

// ContextSwitchASID models a PCID-tagged process switch: instead of
// flushing, translation caches retag to the incoming process's
// address-space identifier, so its entries from earlier timeslices
// still hit. (The paper's 2014-era Linux flushed on every switch; this
// is the tagged-TLB extension.) Nested entries are per-VM and survive
// regardless.
func (m *MMU) ContextSwitchASID(gpt *pagetable.Table, guestSeg segment.Registers, asid uint16) {
	m.lastValid = false
	m.gPT = gpt
	m.segs.Guest = guestSeg
	m.updateScheme()
	m.asid = asid
	m.l1.SetASID(asid)
	m.l2.SetASID(asid)
	m.pwc.SetASID(asid)
}

// FlushASID drops one address space's translations from every guest-
// dimension cache — INVPCID of a single PCID. Nested entries are per-VM
// and survive; the current address space's last-page cache is dropped
// unconditionally (the flushed ASID may be the active one).
func (m *MMU) FlushASID(a uint16) {
	m.lastValid = false
	m.l1.FlushASID(a)
	m.l2.FlushASID(a)
	m.pwc.FlushASID(a)
}

// InvalidatePage models INVLPG after the guest OS unmaps or remaps a
// page: every composite entry covering the mapping is dropped. Because
// composite entries may be cached at 4K grain even for larger guest
// mappings, the whole mapped span is invalidated page by page.
//
// The paging-structure caches are left alone: in this simulator they
// only discount walk cost (walks always consult the real tables), so a
// stale PSC entry cannot produce a wrong translation, merely a slightly
// optimistic cost for one walk.
func (m *MMU) InvalidatePage(gva uint64, s addr.PageSize) {
	m.lastValid = false
	base := addr.PageBase(gva, s)
	for off := uint64(0); off < s.Bytes(); off += addr.PageSize4K {
		m.l1.Invalidate(base + off)
		m.l2.InvalidateGuest(base + off)
	}
}

// InvalidateNested models a nested-page-table change (VMM remap): all
// composite and nested translations derived from the nPT are stale.
func (m *MMU) InvalidateNested() {
	m.lastValid = false
	m.l1.Flush()
	m.l2.Flush()
	m.pwc.Flush()
	m.npwc.Flush()
	m.ptc.Flush()
}

// Result describes one completed translation.
type Result struct {
	HPA uint64
	// Cycles charged to TLB-miss handling for this access (0 on L1 hit).
	Cycles uint64
	// L1Hit, L2Hit, ZeroD classify how the translation resolved.
	L1Hit, L2Hit, ZeroD bool
}

// Translate runs one data access through the pipeline of Figure 5(a).
func (m *MMU) Translate(gva uint64) (Result, *Fault) { return m.translate(gva, true) }

// translate is Translate, pricing a miss's cycles only if priced.
func (m *MMU) translate(gva uint64, priced bool) (Result, *Fault) {
	m.stats.Accesses++

	// Last-page cache: a repeat access to the previous 4K page is by
	// construction an L1 hit (see the field comment) and short-circuits
	// the three-structure probe.
	vbase := gva &^ (addr.PageSize4K - 1)
	if m.lastValid && vbase == m.lastVBase {
		m.stats.L1Hits++
		return Result{HPA: m.lastHBase + (gva - vbase), L1Hit: true}, nil
	}

	// L1 TLB lookup (all sizes in parallel).
	if hpa, _, hit := m.l1.Lookup(gva); hit {
		m.stats.L1Hits++
		m.lastValid, m.lastVBase, m.lastHBase = true, vbase, hpa&^(addr.PageSize4K-1)
		return Result{HPA: hpa, L1Hit: true}, nil
	}

	hpa, cycles, fault := m.miss(gva, priced)
	if fault != nil {
		return Result{}, fault
	}
	m.lastValid, m.lastVBase, m.lastHBase = true, vbase, hpa&^(addr.PageSize4K-1)
	return m.missResult(hpa, cycles), nil
}

// miss resolves one L1 miss through the active scheme, returning its
// hPA and, if priced or observed, the cycles charged to it (else 0).
// Every miss, from Translate or TranslateBlock, enters here, and this
// is the only place the observers see it: a miss's references and
// cycles are the WalkMemRefs and walkCycles deltas across the scheme
// call, it walked when Walks moved, and its class and size are what the
// resolving path left in walkClass and walkSize. The probe observes
// every walk; the sampler is offered every miss, faulted or not.
func (m *MMU) miss(gva uint64, priced bool) (hpa, cycles uint64, fault *Fault) {
	m.stats.L1Misses++
	if !m.observed && !priced {
		hpa, fault = m.scheme.TranslateMiss(m, gva)
		return hpa, 0, fault
	}
	walks0, refs0, cyc0 := m.stats.Walks, m.stats.WalkMemRefs, m.walkCycles()
	hpa, fault = m.scheme.TranslateMiss(m, gva)
	refs, cycles := m.stats.WalkMemRefs-refs0, m.walkCycles()-cyc0
	if m.probe != nil && m.stats.Walks != walks0 {
		m.probe.Refs.Observe(refs)
		m.probe.Cycles.Observe(cycles)
	}
	if m.sampler != nil {
		m.sampler.Offer(fault != nil, string(m.scheme.Name()), gva>>addr.PageShift4K,
			m.walkSize, m.walkClass, refs, cycles, m.asid)
	}
	return hpa, cycles, fault
}

// missResult is the Result of a miss that resolved to hpa at the given
// cost: the resolving path's class says whether it was an L2 hit or 0D.
// The schemes return only the hPA, so this is the one place a miss's
// Result is built; a five-field Result handed up through each call
// level would be copied through memory at every level.
func (m *MMU) missResult(hpa, cycles uint64) Result {
	return Result{
		HPA:    hpa,
		Cycles: cycles,
		L2Hit:  m.walkClass == walkprof.ClassL2Hit,
		ZeroD:  m.walkClass == walkprof.ClassZeroD,
	}
}

// TranslateBlock translates a block of access events in one call,
// writing per-event results into out when it is non-nil (out must then
// be at least len(evs) long). It returns the number of events completed;
// on a fault, that is the faulting event's index and the caller services
// the fault and resumes from there. L1 hits accumulate as one local count
// and flush at block end (or before any slow-path entry), so Stats read
// outside TranslateBlock are identical to per-event Translate calls —
// this is the tight loop behind the replay engine's AccessBlock hook.
func (m *MMU) TranslateBlock(evs []trace.Event, out []Result) (int, *Fault) {
	// The batched run path decomposes the three-structure L1 probe into
	// a 4K-run probe plus empty-structure charges, which is only exact
	// while the 2M and 1G structures are empty. Large-page workloads
	// (and any block during which a walk inserts a large entry — the
	// re-check sits in the loop) take the per-event loop instead.
	if !m.l1.Only4K() {
		return m.translateBlockFrom(evs, out, 0)
	}
	// hits counts L1 hits not yet flushed to Stats (each also an access).
	var hits uint64
	lastValid, lastVBase, lastHBase := m.lastValid, m.lastVBase, m.lastHBase
	// A probe run: consecutive events predicted to miss the last-page
	// cache, probed against the L1 4K structure in one batched call.
	// Miss-heavy phases keep runs at length 1 (no gathered-but-unused
	// lookahead); each fully-hitting run doubles the next gather up to
	// the tlb probe-run width, so hit-heavy phases pipeline their tag
	// loads 8 wide.
	var vpns, ppns [8]uint64
	var idxs [8]int
	runCap := 1
	i := 0
	for i < len(evs) {
		// Gather: an event whose page equals its predecessor's resolves
		// on the last-page cache; the others queue for the batched probe.
		np := 0
		prevOK, prevBase := lastValid, lastVBase
		j := i
		for ; j < len(evs) && np < runCap; j++ {
			vbase := uint64(evs[j].VA) &^ (addr.PageSize4K - 1)
			if prevOK && vbase == prevBase {
				continue
			}
			vpns[np] = vbase >> addr.PageShift4K
			idxs[np] = j
			np++
			prevOK, prevBase = true, vbase
		}
		// A gather with no probes (only possible at block end, a pure
		// last-page-cache tail) is a run of zero probes that all hit.
		nh := m.l1.Lookup4KRun(vpns[:np], ppns[:np])
		// Events before the first missing probe (or the whole gather
		// when everything hit) completed as L1 hits. They are counted,
		// not walked: the last-page state becomes the last hit probe's
		// (unchanged when none hit), and a per-event loop runs only to
		// fill out.
		end, missAt := j, -1
		if nh < np {
			end, missAt = idxs[nh], idxs[nh]
			runCap = 1
		} else if runCap < len(vpns) {
			runCap *= 2
		}
		hits += uint64(end - i)
		if out != nil {
			hbase, p := lastHBase, 0
			for k := i; k < end; k++ {
				if p < nh && k == idxs[p] {
					hbase = ppns[p] << addr.PageShift4K
					p++
				}
				out[k] = Result{HPA: hbase + uint64(evs[k].VA)&(addr.PageSize4K-1), L1Hit: true}
			}
		}
		if nh > 0 {
			lastValid = true
			lastVBase, lastHBase = vpns[nh-1]<<addr.PageShift4K, ppns[nh-1]<<addr.PageShift4K
		}
		i = end
		if missAt < 0 {
			continue
		}
		// The missing event: its 4K probe was already charged inside the
		// batched lookup; charge the (empty) 2M/1G probes and resolve.
		gva := uint64(evs[missAt].VA)
		vbase := gva &^ (addr.PageSize4K - 1)
		m.l1.MissLarge()
		m.stats.Accesses += hits + 1
		m.stats.L1Hits += hits
		hits = 0
		hpa, cycles, fault := m.miss(gva, out != nil)
		if fault != nil {
			m.lastValid, m.lastVBase, m.lastHBase = lastValid, lastVBase, lastHBase
			return missAt, fault
		}
		lastValid, lastVBase, lastHBase = true, vbase, hpa&^(addr.PageSize4K-1)
		if out != nil {
			out[missAt] = m.missResult(hpa, cycles)
		}
		i = missAt + 1
		if !m.l1.Only4K() {
			// The walk inserted a large-page entry: finish per-event.
			m.lastValid, m.lastVBase, m.lastHBase = lastValid, lastVBase, lastHBase
			return m.translateBlockFrom(evs, out, i)
		}
	}
	m.stats.Accesses += hits
	m.stats.L1Hits += hits
	m.lastValid, m.lastVBase, m.lastHBase = lastValid, lastVBase, lastHBase
	return len(evs), nil
}

// translateBlockFrom is the per-event block loop, used for the whole
// block when large-page L1 entries exist (from > 0 resumes after the
// batched loop handed over mid-block): per-event translate, priced
// only for out, stopping at the first fault with that event's index.
func (m *MMU) translateBlockFrom(evs []trace.Event, out []Result, from int) (int, *Fault) {
	for i := from; i < len(evs); i++ {
		res, fault := m.translate(uint64(evs[i].VA), out != nil)
		if fault != nil {
			return i, fault
		}
		if out != nil {
			out[i] = res
		}
	}
	return len(evs), nil
}

// dualFastPath is the Dual Direct 0D path, shared by the schemes whose
// register configuration can have both segment sets enabled: both
// covering the address → hPA = gVA + OFFSET_G + OFFSET_V. The two
// base-bound checks are performed together in one added cycle (Table
// II counts this as one check). Declined (uncovered or escaped)
// accesses charge nothing here beyond the filter probes. Like every
// miss path it returns the hPA; missResult builds the Result.
func (m *MMU) dualFastPath(gva uint64) (uint64, bool) {
	if !(m.segs.Guest.Enabled() && m.segs.VMM.Enabled() &&
		m.segs.Guest.Contains(gva) && !m.escapeGuest(gva)) {
		return 0, false
	}
	gpa := m.segs.Guest.Translate(gva)
	if !m.segs.VMM.Contains(gpa) || m.escapeVMM(gpa) {
		return 0, false
	}
	m.stats.SegmentChecks++
	m.stats.ZeroDWalks++
	m.stats.GuestSegHits++
	m.stats.VMMSegHits++
	m.stats.MissBoth++
	hpa := m.segs.VMM.Translate(gpa)
	m.l1.Insert(gva, hpa, addr.Page4K)
	m.walkClass, m.walkSize = walkprof.ClassZeroD, addr.Page4K
	return hpa, true
}

// probeL2 is the shared L2 TLB lookup of the miss path (guest 4K
// entries; any segment calculation proceeds in parallel, §III.D). The
// probe cost is charged hit or miss, as one L2Hits or L2Misses count. A
// hit returns its hPA; missResult builds the Result.
func (m *MMU) probeL2(gva uint64) (uint64, bool) {
	if hpa, hit := m.l2.LookupGuest(gva); hit {
		m.stats.L2Hits++
		m.l1.Insert(gva, hpa, addr.Page4K)
		m.walkClass, m.walkSize = walkprof.ClassL2Hit, addr.Page4K
		return hpa, true
	}
	m.stats.L2Misses++
	return 0, false
}

// escapeVMM probes the VMM-segment escape filter for a gPA page.
func (m *MMU) escapeVMM(gpa uint64) bool {
	m.stats.EscapeProbes++
	if m.escV.MayContain(gpa >> addr.PageShift4K) {
		m.stats.EscapeTaken++
		return true
	}
	return false
}

// escapeGuest probes the guest-segment escape filter for a VA page.
func (m *MMU) escapeGuest(va uint64) bool {
	m.stats.EscapeProbes++
	if m.escG.MayContain(va >> addr.PageShift4K) {
		m.stats.EscapeTaken++
		return true
	}
	return false
}

// walk2D resolves an L1 miss for every virtualized scheme (Dual Direct
// and FlatNested reach it once their 0D path declines): the shared L2
// probe, then the one 2D walk state machine of Figure 5(b). The segment registers decide which dimensions
// flatten: a covered gVA resolves to gPA by OFFSET_G, a covered gPA to
// hPA by OFFSET_V, and whatever they do not absorb walks a page table,
// the guest table's references each nested-translated (or, under
// FlatNested, flat-table-resolved) first — the 5×4 of the 24-reference
// walk.
//
// The body is straight-line: the segment and ablation (DisablePWC,
// DisableNestedTLB) branches are plain ifs that a given configuration
// always takes the same way. Nothing here observes: miss reads the
// walk's totals off the counters, so an observed run executes exactly
// the code an unobserved one does.
func (m *MMU) walk2D(gva uint64) (uint64, *Fault) {
	if hpa, hit := m.probeL2(gva); hit {
		return hpa, nil
	}
	m.stats.Walks++

	// First dimension. The guest base-bound check happens once per walk
	// (Δ_GD = 1); the guest escape filter is the §V extension ("escape
	// filters at both levels so the guest OS can escape pages as well").
	guestCovered := false
	if m.segs.Guest.Enabled() {
		guestCovered = m.segs.Guest.Contains(gva) && !m.escapeGuest(gva)
		m.stats.SegmentChecks++
	}
	var gpa uint64
	gsize := addr.Page4K
	if guestCovered {
		m.stats.GuestSegHits++
		gpa = m.segs.Guest.Translate(gva)
	} else {
		pa, size, ok, fault := m.walkGuestTable(gva, true)
		if fault == nil && !ok {
			m.stats.GuestFaults++
			fault = &Fault{Kind: FaultGuest, Addr: gva}
		}
		if fault != nil {
			return 0, fault
		}
		gpa, gsize = pa, size
	}

	// Second dimension for the final gPA.
	vmmCovered := m.segs.VMM.Enabled() && m.segs.VMM.Contains(gpa)
	hpa, nsize, fault := m.nestedTranslate(gpa)
	if fault != nil {
		return 0, fault
	}
	m.classifyMiss(guestCovered, vmmCovered)
	m.insertComposite(gva, hpa, gsize, nsize)
	return hpa, nil
}

// nativeWalk is the 1D walk: up to 4 references through the PTE cache,
// reduced by the paging-structure caches.
func (m *MMU) nativeWalk(va uint64) (uint64, *Fault) {
	m.stats.Walks++
	m.walkClass = walkprof.ClassWalk1D
	pa, size, ok, _ := m.walkGuestTable(va, false)
	if !ok {
		m.stats.GuestFaults++
		return 0, &Fault{Kind: FaultGuest, Addr: va}
	}
	m.insertComposite(va, pa, size, size)
	return pa, nil
}

// walkGuestTable is the one guest-table loop, shared by the native
// (1D), nested (2D) and FlatNested walks. It probes the guest PWC, walks
// the table, and charges the path from the PWC's skip level through
// the leaf (or faulting) reference. Each charged PTE address is
// resolved to the host address the PTE cache sees: as-is when native;
// through nestedTranslate when nested; and, under FlatNested, to its
// flat-table entry for an interior level (the gL1 entry still nested-
// translates). It returns the leaf translation and its page size; the
// references are accounted into the stats, PTE cache and PWC here. A
// non-nil fault (the nested dimension failed mid-walk) takes precedence
// over !ok at the caller.
func (m *MMU) walkGuestTable(va uint64, nested bool) (pa uint64, size addr.PageSize, ok bool, fault *Fault) {
	// The guest PWC is probed on every walk, success or fault.
	skip := 0
	if !m.cfg.DisablePWC {
		skip = m.pwc.SkipLevel(va)
	}
	var path [addr.Levels]uint64
	pa, size, n, ok := m.gPT.WalkPath(va, &path)
	flat := nested && m.flatNested
	start := min(skip, n-1)
	for lvl := start; lvl < n; lvl++ {
		a := path[lvl]
		switch {
		case flat && lvl < addr.LvlPT:
			// Flattened interior level: one host reference into the flat
			// table. A table page the nested dimension no longer maps has
			// no valid flat entry, and faults where the base walk's nested
			// translation of it would.
			if !m.flatResolves(a) {
				m.stats.NestedFaults++
				m.stats.WalkMemRefs += uint64(lvl - start)
				return 0, 0, false, &Fault{Kind: FaultNested, Addr: a}
			}
			a = flatEntryAddr(va, lvl)
		case nested:
			hpa, _, f := m.nestedTranslate(a)
			if f != nil {
				m.stats.WalkMemRefs += uint64(lvl - start)
				return 0, 0, false, f
			}
			a = hpa
		}
		m.ptc.Probe(a)
	}
	m.stats.WalkMemRefs += uint64(n - start)
	if ok && !m.cfg.DisablePWC {
		// Interior levels traversed feed the paging-structure caches.
		m.pwc.FillFrom(va, skip, n-1)
	}
	return pa, size, ok, nil
}

// nestedTranslate resolves one gPA to hPA: VMM segment (with escape
// filter), then nested TLB, then one nested page-table walk.
func (m *MMU) nestedTranslate(gpa uint64) (uint64, addr.PageSize, *Fault) {
	// VMM segment check costs Δ whenever the registers are enabled —
	// the hardware performs it unconditionally (Figure 5(b)).
	if m.segs.VMM.Enabled() {
		m.stats.SegmentChecks++
		if m.segs.VMM.Contains(gpa) && !m.escapeVMM(gpa) {
			m.stats.VMMSegHits++
			return m.segs.VMM.Translate(gpa), addr.Page4K, nil
		}
	}
	// Nested TLB (shared L2 structure).
	if !m.cfg.DisableNestedTLB {
		if hpa, hit := m.l2.LookupNested(gpa); hit {
			m.stats.NestedTLBHits++
			return hpa, addr.Page4K, nil
		}
		m.stats.NestedTLBMisses++
	}
	// Nested page-table walk: up to 4 references, reduced by the nested
	// paging-structure caches. A faulting walk charges no references and
	// must leave the nested PWC's LRU state untouched, so the PWC is
	// probed only after the walk succeeds.
	m.stats.NestedWalks++
	var path [addr.Levels]uint64
	hpa, nsize, n, ok := m.nPT.WalkPath(gpa, &path)
	if !ok {
		m.stats.NestedFaults++
		return 0, 0, &Fault{Kind: FaultNested, Addr: gpa}
	}
	skip := 0
	if !m.cfg.DisablePWC {
		skip = min(m.npwc.SkipLevel(gpa), n-1)
	}
	m.stats.WalkMemRefs += uint64(n - skip)
	for _, a := range path[skip:n] {
		m.ptc.Probe(a)
	}
	if !m.cfg.DisablePWC {
		m.npwc.FillFrom(gpa, skip, n-1)
	}
	if !m.cfg.DisableNestedTLB {
		m.l2.InsertNested(gpa&^(addr.PageSize4K-1), hpa&^(addr.PageSize4K-1))
	}
	return hpa, nsize, nil
}

// classifyMiss updates the Table I / Table IV fraction counters and
// sets the walk's class for the walkprof sampler (the §VII taxonomy
// and these counters are the same classification, so they cannot
// disagree).
func (m *MMU) classifyMiss(guestCovered, vmmCovered bool) {
	switch {
	case guestCovered && vmmCovered:
		m.stats.MissBoth++
		m.walkClass = walkprof.ClassWalkBoth
	case vmmCovered:
		m.stats.MissVMMOnly++
		m.walkClass = walkprof.ClassWalkVMMOnly
	case guestCovered:
		m.stats.MissGuestOnly++
		m.walkClass = walkprof.ClassWalkGuestOnly
	default:
		m.stats.MissNeither++
		m.walkClass = walkprof.ClassWalkNeither
	}
}

// insertComposite installs the completed gVA→hPA translation in the
// TLBs. The cacheable granularity is the smaller of the two dimensions'
// page sizes; the L2 holds only 4K entries (Table VI).
func (m *MMU) insertComposite(gva, hpa uint64, gsize, nsize addr.PageSize) {
	size := gsize
	if nsize < size {
		size = nsize
	}
	m.walkSize = size
	if size == addr.Page4K {
		base := gva &^ (addr.PageSize4K - 1)
		hbase := hpa &^ (addr.PageSize4K - 1)
		m.l1.Insert(base, hbase, addr.Page4K)
		m.l2.InsertGuest(base, hbase)
		return
	}
	m.l1.Insert(addr.PageBase(gva, size), addr.PageBase(hpa, size), size)
}

// L2NestedStats exposes shared-L2 statistics for the §IX.A analysis.
func (m *MMU) L2NestedStats() (lookups, hits, nestedInserts uint64) {
	return m.l2.Stats()
}

// L2Evictions reports how many valid entries the shared L2 TLB has
// replaced — the capacity-pressure signal behind the paper's §IX.A
// erosion numbers, exported as a telemetry counter by the harness.
func (m *MMU) L2Evictions() uint64 { return m.l2.Evictions() }
