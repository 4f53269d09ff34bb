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
	// WalkCycles is the total cycles charged to TLB-miss handling
	// (segment checks + walk references + L2/NTLB probe costs).
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

	stats Stats

	// probe, when non-nil, receives per-walk memory-reference and cycle
	// deltas for telemetry histograms. It is single-goroutine state like
	// the rest of the MMU; nil (the default) keeps pageWalk at one nil
	// check of overhead.
	probe *telemetry.WalkProbe

	// sampler, when non-nil, receives a deterministic 1-in-N sample of
	// resolved L1 misses (walkprof, the simulated BadgerTrap). Like the
	// probe it lives entirely on the miss path: disabled sampling costs
	// one nil check per miss and nothing per L1 hit.
	sampler *walkprof.Sampler
	// asid is the active address-space tag stamped into samples; it
	// tracks ContextSwitchASID and stays 0 for single-process cells.
	asid uint16
	// walkClass/walkSize carry the last completed walk's miss class and
	// effective page size from classifyMiss/insertComposite out to the
	// sampling point in the walk wrappers.
	walkClass walkprof.MissClass
	walkSize  addr.PageSize

	refBuf  []pagetable.Ref // reusable guest-walk buffer
	nrefBuf []pagetable.Ref // reusable nested-walk buffer

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

// SetFlatNested enables the flattened nested page table walker: while
// virtualized, the FlatNested scheme replaces the base 2D walk
// (interior guest levels cost one flat-table reference each — see
// scheme_flat.go). The flag is latent outside virtualized operation
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
// cycle cost as deltas of the MMU's own counters, so it cannot drift
// from the reported statistics.
func (m *MMU) SetWalkProbe(p *telemetry.WalkProbe) { m.probe = p }

// SetWalkSampler installs (or, with nil, removes) a walkprof sampler.
// Every resolved L1 miss — segment fast path, L2 hit, or completed walk
// — is offered to it with the miss's classification and exact cost
// deltas; the sampler decides (deterministically) which to record.
// Faulting walks are not offered: the access retries after service and
// the retry's resolution is what gets sampled.
func (m *MMU) SetWalkSampler(s *walkprof.Sampler) { m.sampler = s }

// Stats returns a copy of the accumulated counters.
func (m *MMU) Stats() Stats { return m.stats }

// ResetStats zeroes the counters (after warmup).
func (m *MMU) ResetStats() { m.stats = Stats{} }

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
func (m *MMU) Translate(gva uint64) (Result, *Fault) {
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
	m.stats.L1Misses++

	res, fault := m.scheme.TranslateMiss(m, gva)
	if fault != nil {
		return Result{}, fault
	}
	m.lastValid, m.lastVBase, m.lastHBase = true, vbase, res.HPA&^(addr.PageSize4K-1)
	return res, nil
}

// TranslateBlock translates a block of access events in one call,
// writing per-event results into out when it is non-nil (out must then
// be at least len(evs) long). It returns the number of events completed;
// on a fault, that is the faulting event's index and the caller services
// the fault and resumes from there. Accesses/L1Hits accumulate in locals
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
	var accesses, l1Hits uint64
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
		if np == 0 {
			// Pure last-page-cache tail.
			for k := i; k < j; k++ {
				accesses++
				l1Hits++
				if out != nil {
					gva := uint64(evs[k].VA)
					out[k] = Result{HPA: lastHBase + (gva - lastVBase), L1Hit: true}
				}
			}
			i = j
			continue
		}
		nh := m.l1.Lookup4KRun(vpns[:np], ppns[:np])
		// Events before the first missing probe (or the whole gather
		// when everything hit) completed; fill their results in order.
		end, missAt := j, -1
		if nh < np {
			end, missAt = idxs[nh], idxs[nh]
			runCap = 1
		} else if runCap < len(vpns) {
			runCap *= 2
		}
		p := 0
		for k := i; k < end; k++ {
			gva := uint64(evs[k].VA)
			vbase := gva &^ (addr.PageSize4K - 1)
			accesses++
			l1Hits++
			if p < nh && k == idxs[p] {
				lastVBase, lastHBase = vbase, ppns[p]<<addr.PageShift4K
				lastValid = true
				p++
			}
			if out != nil {
				out[k] = Result{HPA: lastHBase + (gva - vbase), L1Hit: true}
			}
		}
		i = end
		if missAt < 0 {
			continue
		}
		// The missing event: its 4K probe was already charged inside the
		// batched lookup; charge the (empty) 2M/1G probes and resolve.
		gva := uint64(evs[missAt].VA)
		vbase := gva &^ (addr.PageSize4K - 1)
		accesses++
		m.l1.MissLarge()
		m.stats.Accesses += accesses
		m.stats.L1Hits += l1Hits
		accesses, l1Hits = 0, 0
		m.stats.L1Misses++
		res, fault := m.scheme.TranslateMiss(m, gva)
		if fault != nil {
			m.lastValid, m.lastVBase, m.lastHBase = lastValid, lastVBase, lastHBase
			return missAt, fault
		}
		lastValid, lastVBase, lastHBase = true, vbase, res.HPA&^(addr.PageSize4K-1)
		if out != nil {
			out[missAt] = res
		}
		i = missAt + 1
		if !m.l1.Only4K() {
			// The walk inserted a large-page entry: finish per-event.
			m.stats.Accesses += accesses
			m.stats.L1Hits += l1Hits
			m.lastValid, m.lastVBase, m.lastHBase = lastValid, lastVBase, lastHBase
			n, f := m.translateBlockFrom(evs, out, i)
			return n, f
		}
	}
	m.stats.Accesses += accesses
	m.stats.L1Hits += l1Hits
	m.lastValid, m.lastVBase, m.lastHBase = lastValid, lastVBase, lastHBase
	return len(evs), nil
}

// translateBlockFrom is the per-event block loop, used for the whole
// block when large-page L1 entries exist (from > 0 resumes after the
// batched loop handed over mid-block). Probe-for-probe it is exactly
// per-event Translate.
func (m *MMU) translateBlockFrom(evs []trace.Event, out []Result, from int) (int, *Fault) {
	var accesses, l1Hits uint64
	lastValid, lastVBase, lastHBase := m.lastValid, m.lastVBase, m.lastHBase
	for i := from; i < len(evs); i++ {
		gva := uint64(evs[i].VA)
		accesses++
		vbase := gva &^ (addr.PageSize4K - 1)
		if lastValid && vbase == lastVBase {
			l1Hits++
			if out != nil {
				out[i] = Result{HPA: lastHBase + (gva - vbase), L1Hit: true}
			}
			continue
		}
		if hpa, _, hit := m.l1.Lookup(gva); hit {
			l1Hits++
			lastValid, lastVBase, lastHBase = true, vbase, hpa&^(addr.PageSize4K-1)
			if out != nil {
				out[i] = Result{HPA: hpa, L1Hit: true}
			}
			continue
		}
		// Slow path: flush the local counters first so the walk machinery
		// (and any telemetry probe reading counter deltas) sees exact
		// stats, exactly as per-event Translate would.
		m.stats.Accesses += accesses
		m.stats.L1Hits += l1Hits
		accesses, l1Hits = 0, 0
		m.stats.L1Misses++
		res, fault := m.scheme.TranslateMiss(m, gva)
		if fault != nil {
			m.lastValid, m.lastVBase, m.lastHBase = lastValid, lastVBase, lastHBase
			return i, fault
		}
		lastValid, lastVBase, lastHBase = true, vbase, res.HPA&^(addr.PageSize4K-1)
		if out != nil {
			out[i] = res
		}
	}
	m.stats.Accesses += accesses
	m.stats.L1Hits += l1Hits
	m.lastValid, m.lastVBase, m.lastHBase = lastValid, lastVBase, lastHBase
	return len(evs), nil
}

// dualFastPath is the Dual Direct 0D path, shared by the schemes whose
// register configuration can have both segment sets enabled: both
// covering the address → hPA = gVA + OFFSET_G + OFFSET_V. The two
// base-bound checks are performed together in one added cycle (Table
// II counts this as one check). Declined (uncovered or escaped)
// accesses charge nothing here beyond the filter probes.
func (m *MMU) dualFastPath(gva uint64, cycles *uint64) (Result, bool) {
	if !(m.segs.Guest.Enabled() && m.segs.VMM.Enabled() &&
		m.segs.Guest.Contains(gva) && !m.escapeGuest(gva)) {
		return Result{}, false
	}
	gpa := m.segs.Guest.Translate(gva)
	if !m.segs.VMM.Contains(gpa) || m.escapeVMM(gpa) {
		return Result{}, false
	}
	*cycles += m.cfg.SegmentCheckCycles
	m.stats.SegmentChecks++
	m.stats.ZeroDWalks++
	m.stats.GuestSegHits++
	m.stats.VMMSegHits++
	m.stats.MissBoth++
	m.stats.WalkCycles += *cycles
	hpa := m.segs.VMM.Translate(gpa)
	m.l1.Insert(gva, hpa, addr.Page4K)
	if m.sampler != nil && m.sampler.Tick() {
		m.sampler.Record(string(m.scheme.Name()), gva>>addr.PageShift4K,
			addr.Page4K, walkprof.ClassZeroD, 0, *cycles, m.asid)
	}
	return Result{HPA: hpa, Cycles: *cycles, ZeroD: true}, true
}

// probeL2 is the shared L2 TLB lookup of the miss path (guest 4K
// entries; any segment calculation proceeds in parallel, §III.D). The
// probe cost is charged hit or miss.
func (m *MMU) probeL2(gva uint64, cycles *uint64) (Result, bool) {
	if hpa, hit := m.l2.LookupGuest(gva); hit {
		m.stats.L2Hits++
		*cycles += m.cfg.L2HitCycles
		m.stats.WalkCycles += *cycles
		m.l1.Insert(gva, hpa, addr.Page4K)
		if m.sampler != nil && m.sampler.Tick() {
			m.sampler.Record(string(m.scheme.Name()), gva>>addr.PageShift4K,
				addr.Page4K, walkprof.ClassL2Hit, 0, *cycles, m.asid)
		}
		return Result{HPA: hpa, Cycles: *cycles, L2Hit: true}, true
	}
	m.stats.L2Misses++
	*cycles += m.cfg.L2HitCycles // the probe that missed
	return Result{}, false
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

// walk1D invokes the native 1D walk state machine, charging cycles on
// top of the cost already accumulated. The telemetry probe and walkprof
// sampler, when installed, observe each walk's reference and cycle
// deltas. The sampler ticks before the walk so the 1-in-N unsampled
// majority pays only the inlined countdown — counter snapshots and
// argument setup happen only for selected misses (a selected walk that
// faults refunds its tick to the next miss). The wrapper is duplicated
// in walkFlat (walk2D observes inline) rather than taking a function
// value, which would allocate on the hot path.
func (m *MMU) walk1D(gva uint64, cycles uint64) (Result, *Fault) {
	m.stats.Walks++
	sampled := m.sampler != nil && m.sampler.Tick()
	if m.probe == nil && !sampled {
		return m.nativeWalk(gva, cycles)
	}
	refs0, cyc0 := m.stats.WalkMemRefs, m.stats.WalkCycles
	res, fault := m.nativeWalk(gva, cycles)
	drefs, dcyc := m.stats.WalkMemRefs-refs0, m.stats.WalkCycles-cyc0
	if m.probe != nil {
		m.probe.Refs.Observe(drefs)
		m.probe.Cycles.Observe(dcyc)
	}
	if sampled {
		if fault != nil {
			m.sampler.Refund()
		} else {
			m.sampler.Record(string(m.scheme.Name()), gva>>addr.PageShift4K,
				m.walkSize, walkprof.ClassWalk1D, drefs, dcyc, m.asid)
		}
	}
	return res, fault
}

// walk2D resolves an L1 miss for every nested2DScheme (Dual Direct
// reaches it once its 0D path declines): the shared L2 probe, then the
// one 2D walk state machine of Figure 5(b). The segment registers
// decide which dimensions flatten: a covered gVA resolves to gPA by
// OFFSET_G, a covered gPA to hPA by OFFSET_V, and whatever they do not
// absorb walks a page table, the guest table's references each
// nested-translated first (the 5×4 of the 24-reference walk).
//
// The body is straight-line: the segment and ablation (DisablePWC,
// DisableNestedTLB) branches are plain ifs that a given configuration
// always takes the same way, and a guest walk whose 2M prefix is
// walk-cached emits its references into a fixed array (Probe4K/Emit)
// instead of the slice-building WalkFrom. Observation is a nil check on
// the way out — the telemetry probe and walkprof sampler see the walk's
// reference and cycle totals, and a sampled walk that faults refunds
// its tick — so an observed run executes exactly the code an
// unobserved one does.
func (m *MMU) walk2D(gva uint64) (Result, *Fault) {
	var cycles uint64
	if res, hit := m.probeL2(gva, &cycles); hit {
		return res, nil
	}
	m.stats.Walks++
	sampled := m.sampler != nil && m.sampler.Tick()
	refs0 := m.stats.WalkMemRefs

	// First dimension. The guest base-bound check happens once per walk
	// (Δ_GD = 1); the guest escape filter is the §V extension ("escape
	// filters at both levels so the guest OS can escape pages as well").
	guestCovered := false
	if m.segs.Guest.Enabled() {
		guestCovered = m.segs.Guest.Contains(gva) && !m.escapeGuest(gva)
		cycles += m.cfg.SegmentCheckCycles
		m.stats.SegmentChecks++
	}
	var gpa uint64
	gsize := addr.Page4K
	if guestCovered {
		m.stats.GuestSegHits++
		gpa = m.segs.Guest.Translate(gva)
	} else if fp, hit := m.gPT.Probe4K(gva); hit {
		// A present 4K leaf under a walk-cached PT node: its reference
		// addresses come out as a fixed array. Probe4K touches no modeled
		// state, so probing it ahead of the guest PWC reorders nothing.
		skip := 0
		if !m.cfg.DisablePWC {
			skip = m.pwc.SkipLevel(gva)
		}
		pa, refs, nref := fp.Emit(gva, skip)
		for i := 0; i < nref; i++ {
			hpa, _, f := m.nestedTranslate(refs[i], &cycles)
			if f != nil {
				m.stats.WalkMemRefs += uint64(i)
				return m.walkFault(f, cycles, refs0, sampled)
			}
			cycles += m.ptc.Access(hpa)
		}
		m.stats.WalkMemRefs += uint64(nref)
		if !m.cfg.DisablePWC {
			m.pwc.FillFrom(gva, skip, addr.LvlPT)
		}
		gpa = pa
	} else {
		pa, size, ok, fault := m.walkGuestTable(gva, &cycles, true)
		if fault == nil && !ok {
			m.stats.GuestFaults++
			fault = &Fault{Kind: FaultGuest, Addr: gva}
		}
		if fault != nil {
			return m.walkFault(fault, cycles, refs0, sampled)
		}
		gpa, gsize = pa, size
	}

	// Second dimension for the final gPA.
	vmmCovered := m.segs.VMM.Enabled() && m.segs.VMM.Contains(gpa)
	hpa, nsize, fault := m.nestedTranslate(gpa, &cycles)
	if fault != nil {
		return m.walkFault(fault, cycles, refs0, sampled)
	}
	m.classifyMiss(guestCovered, vmmCovered)
	m.stats.WalkCycles += cycles
	m.insertComposite(gva, hpa, gsize, nsize)
	if m.probe != nil || sampled {
		m.observeWalk(gva, cycles, refs0, sampled)
	}
	return Result{HPA: hpa, Cycles: cycles}, nil
}

// walkFault ends a 2D walk that faulted: its cycles are charged and the
// probe observes it, while a sampled walk refunds its tick so the retry
// after fault service is what gets sampled.
func (m *MMU) walkFault(f *Fault, cycles, refs0 uint64, sampled bool) (Result, *Fault) {
	m.stats.WalkCycles += cycles
	if m.probe != nil {
		m.probe.Refs.Observe(m.stats.WalkMemRefs - refs0)
		m.probe.Cycles.Observe(cycles)
	}
	if sampled {
		m.sampler.Refund()
	}
	return Result{}, f
}

// observeWalk hands a completed 2D walk's reference and cycle totals to
// the installed observers.
func (m *MMU) observeWalk(gva, cycles, refs0 uint64, sampled bool) {
	drefs := m.stats.WalkMemRefs - refs0
	if m.probe != nil {
		m.probe.Refs.Observe(drefs)
		m.probe.Cycles.Observe(cycles)
	}
	if sampled {
		m.sampler.Record(string(m.scheme.Name()), gva>>addr.PageShift4K,
			m.walkSize, m.walkClass, drefs, cycles, m.asid)
	}
}

// walkFlat invokes the flattened 2D walk (scheme_flat.go).
func (m *MMU) walkFlat(gva uint64, cycles uint64) (Result, *Fault) {
	m.stats.Walks++
	sampled := m.sampler != nil && m.sampler.Tick()
	if m.probe == nil && !sampled {
		return m.flatWalk2D(gva, cycles)
	}
	refs0, cyc0 := m.stats.WalkMemRefs, m.stats.WalkCycles
	res, fault := m.flatWalk2D(gva, cycles)
	drefs, dcyc := m.stats.WalkMemRefs-refs0, m.stats.WalkCycles-cyc0
	if m.probe != nil {
		m.probe.Refs.Observe(drefs)
		m.probe.Cycles.Observe(dcyc)
	}
	if sampled {
		if fault != nil {
			m.sampler.Refund()
		} else {
			m.sampler.Record(string(m.scheme.Name()), gva>>addr.PageShift4K,
				m.walkSize, m.walkClass, drefs, dcyc, m.asid)
		}
	}
	return res, fault
}

// nativeWalk is the 1D walk: up to 4 references through the PTE cache,
// reduced by the paging-structure caches.
func (m *MMU) nativeWalk(va uint64, cycles uint64) (Result, *Fault) {
	pa, size, ok, _ := m.walkGuestTable(va, &cycles, false)
	if !ok {
		m.stats.GuestFaults++
		m.stats.WalkCycles += cycles
		return Result{}, &Fault{Kind: FaultGuest, Addr: va}
	}
	m.stats.WalkCycles += cycles
	m.insertComposite(va, pa, size, size)
	return Result{HPA: pa, Cycles: cycles}, nil
}

// walkGuestTable walks the first-dimension table, applying the guest
// PWC and, when nested (virtualized mode), translating every table
// reference (a gPA) through the nested dimension before reading it. It
// returns the leaf translation and its page size; the references
// themselves are accounted into the stats and PWC here, so no caller
// consumes them. A non-nil fault (nested dimension failed mid-walk)
// takes precedence over !ok at the caller.
func (m *MMU) walkGuestTable(va uint64, cycles *uint64, nested bool) (pa uint64, size addr.PageSize, ok bool, fault *Fault) {
	// The PWC is probed before the walk (it always was probed, success
	// or fault) so the walk can skip materializing references the
	// charging loop below would never read; WalkFrom still emits the
	// leaf (or faulting) reference, matching Walk's clamped refs[skip:].
	skip := 0
	if !m.cfg.DisablePWC {
		skip = m.pwc.SkipLevel(va)
	}
	m.refBuf = m.refBuf[:0]
	pa, size, refs, ok := m.gPT.WalkFrom(va, skip, m.refBuf)
	m.refBuf = refs

	// The ref count is accumulated locally and flushed to the stats
	// struct once (including on the fault path, where only the refs
	// performed before the abort count), not read-modify-written per
	// reference.
	n := uint64(0)
	for _, ref := range refs {
		physAddr := ref.Addr
		if nested {
			hpa, _, f := m.nestedTranslate(ref.Addr, cycles)
			if f != nil {
				m.stats.WalkMemRefs += n
				return 0, 0, false, f
			}
			physAddr = hpa
		}
		n++
		*cycles += m.ptc.Access(physAddr)
	}
	m.stats.WalkMemRefs += n
	if ok && !m.cfg.DisablePWC {
		// Interior levels traversed feed the paging-structure caches.
		leafLvl := refs[len(refs)-1].Level
		m.pwc.FillFrom(va, skip, leafLvl)
	}
	return pa, size, ok, nil
}

// nestedTranslate resolves one gPA to hPA: VMM segment (with escape
// filter), then nested TLB, then a nested page-table walk.
func (m *MMU) nestedTranslate(gpa uint64, cycles *uint64) (uint64, addr.PageSize, *Fault) {
	// VMM segment check costs Δ whenever the registers are enabled —
	// the hardware performs it unconditionally (Figure 5(b)).
	if m.segs.VMM.Enabled() {
		*cycles += m.cfg.SegmentCheckCycles
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
			*cycles += m.cfg.NestedProbeCycles
			return hpa, addr.Page4K, nil
		}
		m.stats.NestedTLBMisses++
	}
	// Nested page-table walk: up to 4 references, reduced by the nested
	// paging-structure caches. A faulting walk must leave the nested
	// PWC's LRU state untouched, so the PWC is probed only once success
	// is certain: before emitting a walk-cache fast walk (which cannot
	// fault), after the general walk otherwise. The ref buffer is
	// separate from the guest-walk buffer, which is live while a 2D walk
	// translates its table references through this path.
	m.stats.NestedWalks++
	var refs [addr.Levels]uint64
	var hpa uint64
	nsize := addr.Page4K
	var n, skip, leafLvl int
	if fp, hit := m.nPT.Probe4K(gpa); hit {
		if !m.cfg.DisablePWC {
			skip = m.npwc.SkipLevel(gpa)
		}
		hpa, refs, n = fp.Emit(gpa, skip)
		leafLvl = addr.LvlPT
	} else {
		var rs []pagetable.Ref
		var ok bool
		hpa, nsize, rs, ok = m.nPT.Walk(gpa, m.nrefBuf[:0])
		m.nrefBuf = rs
		if !ok {
			m.stats.NestedFaults++
			return 0, 0, &Fault{Kind: FaultNested, Addr: gpa}
		}
		if !m.cfg.DisablePWC {
			skip = min(m.npwc.SkipLevel(gpa), len(rs)-1)
		}
		for i, r := range rs[skip:] {
			refs[i] = r.Addr
		}
		n, leafLvl = len(rs)-skip, rs[len(rs)-1].Level
	}
	m.stats.WalkMemRefs += uint64(n)
	cyc := *cycles
	for _, a := range refs[:n] {
		cyc += m.ptc.Access(a)
	}
	*cycles = cyc
	if !m.cfg.DisablePWC {
		m.npwc.FillFrom(gpa, skip, leafLvl)
	}
	if !m.cfg.DisableNestedTLB {
		m.l2.InsertNested(gpa&^(addr.PageSize4K-1), hpa&^(addr.PageSize4K-1))
	}
	return hpa, nsize, nil
}

// classifyMiss updates the Table I / Table IV fraction counters and
// records the walk's class for the walkprof sampler (the §VII taxonomy
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
