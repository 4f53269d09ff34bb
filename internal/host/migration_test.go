// Migration under memory pressure, foreign-VM callback hygiene, and
// configuration rejection: the policy paths the density sweeps only
// reach probabilistically, driven here to completion.

package host

import (
	"strings"
	"testing"

	"vdirect/internal/addr"
	"vdirect/internal/mmu"
	"vdirect/internal/oracle"
	"vdirect/internal/trace"
	"vdirect/internal/vmm"
	"vdirect/internal/workload"
)

// migrationConfig builds a host where the last guest admits Base
// Virtualized (the tail run is too short for its segment) but guests
// carry enough balloonable headroom that, squeezed to their floors,
// the host can hold a migration's transient double footprint.
func migrationConfig() Config {
	cfg := Config{
		Guests:          3,
		TenantsPerGuest: 2,
		Workload:        "gups",
		WL:              workload.Config{Seed: 1, MemoryMB: 4, Ops: 4000},
		GuestHeadroom:   48 << 20,
		BalloonFloor:    8 << 20,
		Seed:            7,
		AdmitChurn:      -1,
		RoundChurn:      -1,
	}
	gs := cfg.GuestSize()
	cfg.HostMemory = addr.AlignUp(2*gs+gs/2+(16<<20), addr.PageSize4K)
	return cfg
}

// TestMigrationReshufflesBaseGuest balloons the host open and drives
// the migration op until the paging-mode guest actually moves: its VM
// object is replaced, the kernel backend and MMU nested table follow,
// and every frame book still balances before and after a full replay.
func TestMigrationReshufflesBaseGuest(t *testing.T) {
	s, err := NewSim(migrationConfig())
	if err != nil {
		t.Fatal(err)
	}
	victim := s.Guests[len(s.Guests)-1]
	if victim.Direct {
		t.Fatalf("guest %d admitted Dual Direct; migration needs a paging guest", victim.Index)
	}
	oldVM := victim.VM

	// Open up room for the pre-copy double footprint.
	need := oldVM.BackedFrames() + nptOverheadFrames(s.guestSize) + hostSlackFrames
	if free := s.Host.Mem.FreeFrames(); free < need {
		if err := s.balloonForFrames(need - free); err != nil {
			t.Fatal(err)
		}
	}

	// opMigrate picks its guest at random and skips Direct guests; a
	// few dozen draws are guaranteed to hit the single Base guest.
	for i := 0; i < 64 && victim.Migrations == 0; i++ {
		if err := s.opMigrate(); err != nil {
			t.Fatal(err)
		}
		s.flushInvalidated()
	}
	if victim.Migrations == 0 {
		t.Fatal("64 migration draws never moved the Base guest")
	}
	if victim.VM == oldVM {
		t.Fatal("migration counted but the VM object did not change")
	}
	if s.byVM[victim.VM] != victim {
		t.Fatal("byVM does not map the destination VM to the migrated guest")
	}
	if _, ok := s.byVM[oldVM]; ok {
		t.Fatal("byVM still maps the released source VM")
	}
	if err := s.CheckAccounting(); err != nil {
		t.Fatal(err)
	}
	if err := checkFrameBooks(s); err != nil {
		t.Fatal(err)
	}

	// The migrated guest must replay and cross-check like any other.
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Guests[victim.Index].Migrations; got == 0 {
		t.Fatalf("result lost the migration count, got %d", got)
	}
}

// TestCallbacksIgnoreForeignVM runs every callback-firing VMM
// operation on a VM the host layer never admitted: the callbacks must
// ignore it (no counters move, no crash), and once it is destroyed the
// owner books balance as if it never existed.
func TestCallbacksIgnoreForeignVM(t *testing.T) {
	s, err := NewSim(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	balloonsBefore := s.Guests[0].Balloons
	sharedBefore := s.Guests[0].SharedIn

	foreign, err := s.Host.CreateVM(vmm.VMConfig{
		Name: "foreign", MemorySize: 4 << 20, NestedPageSize: addr.Page4K})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := foreign.HotplugAdd(1 << 20); err != nil { // Hotplugged
		t.Fatal(err)
	}
	if err := foreign.Balloon([]uint64{0}); err != nil { // Ballooned
		t.Fatal(err)
	}
	foreign.SetPageContent(1<<12, 0xAB)
	foreign.SetPageContent(2<<12, 0xAB)
	if _, err := s.Host.ScanAndShare([]*vmm.VM{foreign}); err != nil { // Shared
		t.Fatal(err)
	}
	if _, err := foreign.WriteFault(2 << 12); err != nil { // CoWBroken
		t.Fatal(err)
	}
	// While the foreign VM exists, the cross-layer accounting check must
	// flag its backing as registered to a VM the host never admitted.
	if err := s.CheckAccounting(); err == nil {
		t.Fatal("foreign VM backing escaped the accounting check")
	}
	if err := s.Host.DestroyVM(foreign); err != nil {
		t.Fatal(err)
	}

	if s.Guests[0].Balloons != balloonsBefore || s.Guests[0].SharedIn != sharedBefore {
		t.Fatal("foreign VM operations moved an admitted guest's counters")
	}
	if err := s.CheckAccounting(); err != nil {
		t.Fatal(err)
	}
	if err := checkFrameBooks(s); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestNewSimRejectsBadConfig covers the configuration error paths.
func TestNewSimRejectsBadConfig(t *testing.T) {
	if _, err := NewSim(Config{}); err == nil {
		t.Error("zero guests accepted")
	}
	if _, err := NewSim(Config{Guests: 1, Workload: "no-such-workload"}); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestTranslateBlockReportsUnservicableFault feeds a tenant an access
// far outside any mapped region: the kernel cannot service it, and the
// hook must surface the fault instead of spinning.
func TestTranslateBlockReportsUnservicableFault(t *testing.T) {
	s, err := NewSim(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	g := s.Guests[0]
	if err := g.Sched.SwitchTo(0, g.MMU); err != nil {
		t.Fatal(err)
	}
	evs := []trace.Event{{Kind: trace.Access, VA: addr.GVA(0x7f00_0000_0000)}}
	if _, err := g.translateBlock(0, evs); err == nil {
		t.Fatal("unmapped access translated without error")
	} else if !strings.Contains(err.Error(), "fault") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestAdmitUntilExhaustion keeps admitting guests onto a tight host
// until admission fails — every guest's balloonable headroom is gone —
// and checks the failed admission rolled back completely: no leaked
// frames, no stale owner stamps, no zombie byVM entry, and the host
// still replays.
func TestAdmitUntilExhaustion(t *testing.T) {
	cfg := tightConfig(2)
	cfg.AdmitChurn = -1
	cfg.RoundChurn = -1
	s, err := NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var admitErr error
	for i := 0; i < 12; i++ {
		if admitErr = s.admit(len(s.Guests)); admitErr != nil {
			break
		}
	}
	if admitErr == nil {
		t.Fatal("12 extra admissions all succeeded on a host sized for 2 guests")
	}
	if len(s.byVM) != len(s.Guests) {
		t.Fatalf("byVM has %d entries for %d guests after failed admission",
			len(s.byVM), len(s.Guests))
	}
	if err := s.CheckAccounting(); err != nil {
		t.Fatal(err)
	}
	if err := checkFrameBooks(s); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestTranslateBlockReportsNestedFault yanks the host backing out from
// under a mapped guest page (a raw VMM balloon the kernel never asked
// for) and checks the access hook surfaces the resulting nested fault
// as an error rather than trying to service it as demand paging.
func TestTranslateBlockReportsNestedFault(t *testing.T) {
	cfg := tightConfig(3)
	cfg.AdmitChurn = -1
	cfg.RoundChurn = -1
	cfg.SkipCrossCheck = true
	s, err := NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := s.Guests[len(s.Guests)-1]
	if g.Direct {
		t.Fatal("expected the last guest to run Base Virtualized")
	}
	if err := g.Sched.SwitchTo(0, g.MMU); err != nil {
		t.Fatal(err)
	}
	prim := g.workloads[0].PrimaryRegion()
	gpa, _, ok := g.Procs[0].PT.Translate(prim.Start)
	if !ok {
		t.Fatal("primary region start not mapped")
	}
	if err := g.VM.Balloon([]uint64{gpa >> 12}); err != nil {
		t.Fatal(err)
	}
	s.flushInvalidated()
	evs := []trace.Event{{Kind: trace.Access, VA: addr.GVA(prim.Start)}}
	if _, err := g.translateBlock(0, evs); err == nil {
		t.Fatal("access to unbacked page translated without error")
	} else if !strings.Contains(err.Error(), "nested fault") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestStatsIdentityViolationsDetected feeds the per-guest identity check
// Run applies (oracle.CheckIdentities) each of the four counter
// corruptions it guards against.
func TestStatsIdentityViolationsDetected(t *testing.T) {
	good := mmu.Stats{
		Accesses: 10, L1Hits: 6, L1Misses: 4,
		ZeroDWalks: 1, L2Hits: 1, Walks: 2,
		EscapeProbes: 2, EscapeTaken: 1,
		GuestFaults: 1, NestedFaults: 1,
	}
	if err := oracle.CheckIdentities(good); err != nil {
		t.Fatalf("consistent stats rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*mmu.Stats)
	}{
		{"accesses", func(st *mmu.Stats) { st.Accesses++ }},
		{"l1-misses", func(st *mmu.Stats) { st.ZeroDWalks++ }},
		{"escapes", func(st *mmu.Stats) { st.EscapeTaken = st.EscapeProbes + 1 }},
		{"faults", func(st *mmu.Stats) { st.GuestFaults = st.Walks + 1 }},
	}
	for _, c := range cases {
		st := good
		c.mutate(&st)
		if err := oracle.CheckIdentities(st); err == nil {
			t.Errorf("%s violation not detected", c.name)
		}
	}
}
