package mmu

import (
	"testing"

	"vdirect/internal/addr"
	"vdirect/internal/pagetable"
	"vdirect/internal/segment"
)

// The thrash differential drives a conflict-miss-heavy workload — far
// more live pages per L1 set than the TLB has ways — through per-event
// Translate on one stack and TranslateBlock on an identical one, with
// flushes, remaps with their page invalidations, and tagged context
// switches landing at the same event boundaries on both. Under eviction
// pressure the batched path's run detection and last-page restore get
// exercised on entries that keep disappearing; the contract is the same
// as TestTranslateBlockMatchesPerEvent: batching must be invisible in
// every counter, every result, and (in the sampled variant) every
// walkprof sample. Both runners also hold every resolved hPA to ground
// truth — the software translation through the active guest table and
// the nested table — so an invalidation both stacks skip alike (a stale
// TLB entry outliving a remap) fails too, not only a divergence.

// thrashOp kinds. Access steps carry a VA; switch steps carry the
// target ASID (0 → space A's page table, 1 → space B's); remap steps
// move the active space's page at va to gPA gpa.
const (
	thrashAccess = iota
	thrashFlushTLBs
	thrashInvlPage
	thrashSwitch
	thrashFlushASID
	thrashRemap
)

type thrashOp struct {
	kind int
	va   uint64
	asid uint16
	gpa  uint64
}

// thrashState is one MMU stack plus the second address space and the
// current demand-fault target. Both runners mutate their own state
// through applyThrashOp so the two stacks see identical sequences.
type thrashState struct {
	e      *env
	ptB    *pagetable.Table
	active *pagetable.Table
	asid   uint16
}

// thrashVAs are the conflicting VPNs. The L1 4K TLB is 64 entries /
// 4 ways = 16 sets and the shared L2 is 512 / 4 = 128 sets, so VPNs
// striding 128 collide in one set of *both* levels. Twelve pages per
// set against 4 ways guarantees steady conflict evictions all the way
// down — re-sweeps miss L1 and L2 and re-walk. Two set offsets keep the pressure from being purely
// one-set pathological.
func thrashVAs() []uint64 {
	var vas []uint64
	for set := uint64(0); set < 2; set++ {
		for i := uint64(0); i < 12; i++ {
			vas = append(vas, (0x400+set+i*128)<<12)
		}
	}
	return vas
}

// newThrashState builds an env plus a second guest address space over
// the same guest memory: space B maps the same conflict VAs to shifted
// gPAs and deliberately leaves the last four unmapped so switches are
// followed by demand faults mid-thrash.
func newThrashState(t *testing.T, cfg Config) *thrashState {
	t.Helper()
	e := newEnv(t, 16, cfg)
	vas := thrashVAs()
	for _, va := range vas {
		if err := e.gPT.Map(va, 0x200000+(va>>12)%0x400<<12, addr.Page4K); err != nil {
			t.Fatal(err)
		}
	}
	ptB, err := pagetable.New(e.guestMem)
	if err != nil {
		t.Fatal(err)
	}
	for _, va := range vas[:len(vas)-4] {
		if err := ptB.Map(va, 0x600000+(va>>12)%0x400<<12, addr.Page4K); err != nil {
			t.Fatal(err)
		}
	}
	return &thrashState{e: e, ptB: ptB, active: e.gPT}
}

// serviceThrashFault demand-maps into the *active* address space at a
// gPA disjoint from both pre-mapped ranges, so per-event and block runs
// service identically regardless of which space faulted.
func (s *thrashState) serviceFault(t *testing.T, fault *Fault) {
	t.Helper()
	if fault.Kind != FaultGuest {
		t.Fatalf("unexpected nested fault at %#x", fault.Addr)
	}
	page := addr.PageBase(fault.Addr, addr.Page4K)
	gpa := 0xA00000 + (page>>12)%0x400<<12
	if err := s.active.Map(page, gpa, addr.Page4K); err != nil {
		t.Fatalf("servicing fault at %#x: %v", page, err)
	}
}

// checkTruth holds a resolved access to the software translation of
// its VA through the active guest table and the nested table.
func (s *thrashState) checkTruth(t *testing.T, va uint64, res Result) {
	t.Helper()
	gpa, _, ok := s.active.Translate(va)
	if !ok {
		t.Fatalf("va %#x resolved to %#x but the active space does not map it", va, res.HPA)
	}
	hpa, _, ok := s.e.nPT.Translate(gpa)
	if !ok || res.HPA != hpa {
		t.Fatalf("va %#x (ASID %d) resolved to hPA %#x, ground truth %#x", va, s.asid, res.HPA, hpa)
	}
}

// applyThrashOp performs one non-access mutation on this stack.
func (s *thrashState) applyThrashOp(t *testing.T, op thrashOp) {
	t.Helper()
	switch op.kind {
	case thrashFlushTLBs:
		s.e.m.FlushTLBs()
	case thrashInvlPage:
		s.e.m.InvalidatePage(op.va, addr.Page4K)
	case thrashSwitch:
		pt := s.e.gPT
		if op.asid == 1 {
			pt = s.ptB
		}
		s.e.m.ContextSwitchASID(pt, segment.Disabled(), op.asid)
		s.active, s.asid = pt, op.asid
	case thrashFlushASID:
		s.e.m.FlushASID(op.asid)
	case thrashRemap:
		if err := s.active.Remap(op.va, op.gpa); err != nil {
			t.Fatalf("remapping %#x: %v", op.va, err)
		}
	}
}

// thrashScript builds the deterministic adversarial sequence: rounds of
// conflict-set sweeps with a different mutation landing between rounds —
// full flush, remap plus INVLPG of the page just about to be re-touched,
// tagged switches between the two spaces (each space keeps its own ASID,
// so no PCID-slot reuse), and a remap of the space being left followed
// by INVPCID of its ASID. Each remap is re-touched right after its
// invalidation, while the stale translation is still resident in the
// L2, so an invalidation that fails to reach either TLB level serves
// the old frame.
func thrashScript() []thrashOp {
	vas := thrashVAs()
	var script []thrashOp
	sweep := func(rot int) {
		for i := range vas {
			va := vas[(i+rot)%len(vas)]
			script = append(script, thrashOp{kind: thrashAccess, va: va + uint64(i%4096)})
			if i%5 == 0 { // same-page repeat: last-page cache under pressure
				script = append(script, thrashOp{kind: thrashAccess, va: va + 0x40})
			}
		}
	}
	for r := 0; r < 8; r++ {
		// Two back-to-back sweeps: the second re-walks the pages the
		// first's conflict evictions threw out before the mutation below
		// stales everything again.
		sweep(r)
		sweep(r + 5)
		last := vas[(len(vas)-1+r+5)%len(vas)] // the second sweep's final page
		remap := thrashOp{kind: thrashRemap, va: last, gpa: 0xE00000 + uint64(r)<<12}
		switch r % 4 {
		case 0:
			script = append(script, thrashOp{kind: thrashFlushTLBs})
		case 1:
			// Remap and invalidate the page the sweep touched last, then
			// one access straddling the invalidation to force an
			// immediate re-walk of a just-hot page.
			script = append(script,
				thrashOp{kind: thrashAccess, va: last},
				remap,
				thrashOp{kind: thrashInvlPage, va: last},
				thrashOp{kind: thrashAccess, va: last})
		case 2:
			script = append(script, thrashOp{kind: thrashSwitch, asid: 1})
		case 3:
			// Space B is active (switched to in the previous round):
			// remap its last-touched page, shoot down its whole ASID,
			// and re-touch the page before leaving.
			script = append(script,
				remap,
				thrashOp{kind: thrashFlushASID, asid: 1},
				thrashOp{kind: thrashAccess, va: last},
				thrashOp{kind: thrashSwitch, asid: 0})
		}
	}
	// End back in space A with one final sweep so both ASIDs' entries
	// coexist in the L1/L2 at comparison time.
	script = append(script, thrashOp{kind: thrashSwitch, asid: 0})
	sweep(3)
	return script
}

// runThrashPerEvent drives the script one Translate at a time.
func runThrashPerEvent(t *testing.T, s *thrashState, script []thrashOp) []Result {
	t.Helper()
	var out []Result
	for _, op := range script {
		if op.kind != thrashAccess {
			s.applyThrashOp(t, op)
			continue
		}
		for attempt := 0; ; attempt++ {
			res, fault := s.e.m.Translate(op.va)
			if fault == nil {
				s.checkTruth(t, op.va, res)
				out = append(out, res)
				break
			}
			if attempt >= 2 {
				t.Fatalf("va %#x still faulting", op.va)
			}
			s.serviceFault(t, fault)
		}
	}
	return out
}

// runThrashBlock drives the same script through TranslateBlock,
// batching each maximal run of consecutive accesses and applying the
// intervening mutation at the same event boundary the per-event run
// saw it.
func runThrashBlock(t *testing.T, s *thrashState, script []thrashOp) []Result {
	t.Helper()
	var out []Result
	var runVAs []uint64
	flush := func() {
		if len(runVAs) == 0 {
			return
		}
		evs := accessEvents(runVAs)
		sub := make([]Result, len(evs))
		done := 0
		for done < len(evs) {
			n, fault := s.e.m.TranslateBlock(evs[done:], sub[done:])
			done += n
			if fault == nil {
				break
			}
			s.serviceFault(t, fault)
		}
		if done != len(evs) {
			t.Fatalf("block run completed %d of %d events", done, len(evs))
		}
		// Mappings only grow within a run (fault service), so every
		// result can be checked against the tables as the run left them.
		for i, va := range runVAs {
			s.checkTruth(t, va, sub[i])
		}
		out = append(out, sub...)
		runVAs = runVAs[:0]
	}
	for _, op := range script {
		if op.kind == thrashAccess {
			runVAs = append(runVAs, op.va)
			continue
		}
		flush()
		s.applyThrashOp(t, op)
	}
	flush()
	return out
}

// TestTranslateBlockThrashDifferential is the adversarial batching
// differential, run on the default hardware and again with the PWCs and
// nested TLB disabled, so the walk's uncached branches face the same
// churn.
func TestTranslateBlockThrashDifferential(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"plain", Config{}},
		{"uncached", Config{DisablePWC: true, DisableNestedTLB: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			script := thrashScript()

			per := newThrashState(t, tc.cfg)
			blk := newThrashState(t, tc.cfg)

			perResults := runThrashPerEvent(t, per, script)
			blkResults := runThrashBlock(t, blk, script)

			if len(perResults) != len(blkResults) {
				t.Fatalf("result counts diverge: %d vs %d", len(perResults), len(blkResults))
			}
			for i := range perResults {
				if perResults[i] != blkResults[i] {
					t.Fatalf("result %d diverges:\nper-event %+v\nblock     %+v", i, perResults[i], blkResults[i])
				}
			}
			if per.e.m.Stats() != blk.e.m.Stats() {
				t.Errorf("stats diverge:\nper-event: %+v\nblock:     %+v", per.e.m.Stats(), blk.e.m.Stats())
			}

			// The workload must actually thrash, or the differential is
			// vacuous: with 12 live pages per 4-way set, most sweep
			// touches should miss L1 even in steady state.
			if st := per.e.m.Stats(); st.L1Misses < st.Accesses/3 {
				t.Errorf("workload not adversarial: only %d L1 misses in %d accesses", st.L1Misses, st.Accesses)
			}
		})
	}
}

// TestInvalidatePageCrossASID pins two deliberate asymmetries between
// INVLPG and the tagged TLBs. InvalidatePage is ASID-blind — it drops
// the page's entries under *every* tag, modeling a shootdown that must
// reach mappings the current process cannot name — and the last-page
// cache, which carries no tag at all, must drop alongside. If either
// went ASID-selective, the switch-back in step 4 would resurrect a
// stale translation through an entry the invalidation skipped.
func TestInvalidatePageCrossASID(t *testing.T) {
	const va = uint64(0x400123)
	page := addr.PageBase(va, addr.Page4K)

	e := newEnv(t, 16, Config{})
	ptB, err := pagetable.New(e.guestMem)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.gPT.Map(page, 0x200000, addr.Page4K); err != nil {
		t.Fatal(err)
	}
	if err := ptB.Map(page, 0x300000, addr.Page4K); err != nil {
		t.Fatal(err)
	}
	translate := func(step string, wantGPA uint64) Result {
		t.Helper()
		res, fault := e.m.Translate(va)
		if fault != nil {
			t.Fatalf("%s: %v", step, fault)
		}
		if want := e.hostBase + wantGPA + (va - page); res.HPA != want {
			t.Fatalf("%s: hPA = %#x, want %#x", step, res.HPA, want)
		}
		return res
	}

	// Step 1: process A (ASID 0) warms its translation into the L1.
	e.m.ContextSwitchASID(e.gPT, segment.Disabled(), 0)
	translate("warm A", 0x200000)

	// Step 2: tagged switch to process B (ASID 1); its mapping of the
	// same VA coexists with A's in the TLB under a different tag, and
	// the last-page cache now holds B's translation.
	e.m.ContextSwitchASID(ptB, segment.Disabled(), 1)
	translate("warm B", 0x300000)
	walksBefore := e.m.Stats().Walks

	// Step 3: A's page is remapped and shot down while B is running.
	// The INVLPG lands under B's ASID yet must kill A's entry too, and
	// must drop the (untagged) last-page cache even though the cached
	// translation belongs to the *current* ASID and is still valid.
	if err := e.gPT.Remap(page, 0x500000); err != nil {
		t.Fatal(err)
	}
	e.m.InvalidatePage(va, addr.Page4K)

	// B's own next access re-walks — the blind invalidation cost it a
	// perfectly good entry — but still resolves through ptB.
	res := translate("B after shootdown", 0x300000)
	if res.L1Hit {
		t.Error("B resolved from L1 after INVLPG (last-page/L1 entry survived)")
	}
	if w := e.m.Stats().Walks; w != walksBefore+1 {
		t.Errorf("B re-walk: walks = %d, want %d", w, walksBefore+1)
	}

	// Step 4: tagged switch back to A with no flush — exactly the path
	// that would serve the stale 0x200000 entry if the shootdown had
	// been ASID-selective.
	e.m.ContextSwitchASID(e.gPT, segment.Disabled(), 0)
	translate("A after switch-back", 0x500000)
	if w := e.m.Stats().Walks; w != walksBefore+2 {
		t.Errorf("A re-walk: walks = %d, want %d (stale cross-ASID entry served?)", w, walksBefore+2)
	}

	// B's untouched entry is still live under its tag: one more tagged
	// switch must hit it without a walk, pinning that the shootdown was
	// page-targeted, not a flush in disguise.
	e.m.ContextSwitchASID(ptB, segment.Disabled(), 1)
	res = translate("B retained", 0x300000)
	if !res.L1Hit {
		t.Error("B's re-walked entry did not survive the ASID round-trip")
	}
}

// TestTranslateBlockThrashSampled repeats the thrash differential with
// period-1 walkprof samplers installed on both stacks and requires the
// two sample streams to be element-wise identical — VPN, size, class,
// refs, cycles, and ASID per miss, in order.
func TestTranslateBlockThrashSampled(t *testing.T) {
	script := thrashScript()

	per := newThrashState(t, Config{})
	sPer := sampleEverything(per.e.m)
	blk := newThrashState(t, Config{})
	sBlk := sampleEverything(blk.e.m)

	runThrashPerEvent(t, per, script)
	runThrashBlock(t, blk, script)

	a, b := sPer.Samples(), sBlk.Samples()
	if len(a) != len(b) {
		t.Fatalf("sample counts diverge: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d diverges:\nper-event %+v\nblock     %+v", i, a[i], b[i])
		}
	}
	if len(a) == 0 {
		t.Fatal("thrash run recorded no samples at period 1")
	}
	if per.e.m.Stats() != blk.e.m.Stats() {
		t.Errorf("stats diverge:\nper-event: %+v\nblock:     %+v", per.e.m.Stats(), blk.e.m.Stats())
	}
	// Period-1 sample count must equal the completed L1 misses — every
	// resolved miss records exactly once; a faulting access counts an
	// L1 miss but aborts before the sampler sees it.
	st := per.e.m.Stats()
	if want := st.L1Misses - st.GuestFaults - st.NestedFaults; uint64(len(a)) != want {
		t.Errorf("period-1 samples = %d, want %d (one per completed L1 miss)", len(a), want)
	}
}
