package vmm

import (
	"errors"
	"strings"
	"testing"

	"vdirect/internal/addr"
	"vdirect/internal/pagetable"
)

// exhaustHost allocates every remaining host frame so the next
// allocation of any kind must fail.
func exhaustHost(t *testing.T, h *Host) {
	t.Helper()
	for {
		if _, err := h.Mem.AllocFrame(); err != nil {
			return
		}
	}
}

// TestHotplugAddRollsBackOnExhaustion pins the rollback contract: when
// the host runs out of frames partway through backing a hotplugged
// range, the frames already installed are unmapped and freed — a failed
// hotplug must not leak host memory or leave a half-backed range.
func TestHotplugAddRollsBackOnExhaustion(t *testing.T) {
	// 24MB host, 16MB guest: a few MB of slack remain, far less than the
	// 32MB request, so the backing loop fails mid-range.
	h, vm := newHostVM(t, 24, 16, VMConfig{})
	freeBefore := h.Mem.FreeFrames()
	tableBefore := vm.NPT.TablePages()
	grownBefore := vm.GuestMem.Size()

	if _, err := vm.HotplugAdd(32 << 20); err == nil {
		t.Fatal("HotplugAdd succeeded with insufficient host memory")
	}

	tableGrowth := vm.NPT.TablePages() - tableBefore
	if got := h.Mem.FreeFrames() + tableGrowth; got != freeBefore {
		t.Errorf("rollback leaked host frames: %d free (+%d table pages), want %d",
			h.Mem.FreeFrames(), tableGrowth, freeBefore)
	}
	// Nothing in the attempted range may still translate.
	for gpa := grownBefore; gpa < vm.GuestMem.Size(); gpa += addr.PageSize4K {
		if _, _, ok := vm.NPT.Translate(gpa); ok {
			t.Fatalf("gPA %#x still backed after rollback", gpa)
		}
	}
	// The VM remains fully functional over its original memory.
	for gpa := uint64(0); gpa < grownBefore; gpa += 1 << 20 {
		if _, _, ok := vm.NPT.Translate(gpa); !ok {
			t.Fatalf("original gPA %#x lost during rollback", gpa)
		}
	}
}

// TestBalloonUnbackedFrame pins that ballooning a frame whose backing
// is already gone reports ErrNoBacking instead of corrupting state.
func TestBalloonUnbackedFrame(t *testing.T) {
	h, vm := newHostVM(t, 64, 16, VMConfig{})
	if err := vm.Balloon([]uint64{5}); err != nil {
		t.Fatal(err)
	}
	free := h.Mem.FreeFrames()
	if err := vm.Balloon([]uint64{5}); !errors.Is(err, ErrNoBacking) {
		t.Fatalf("double balloon: err = %v, want ErrNoBacking", err)
	}
	if h.Mem.FreeFrames() != free {
		t.Error("failed balloon changed host free frames")
	}
}

// TestHotplugRemoveUnbackedIsNoop covers the already-unbacked skip: a
// second remove of the same range must succeed without freeing anything
// twice.
func TestHotplugRemoveUnbackedIsNoop(t *testing.T) {
	h, vm := newHostVM(t, 64, 16, VMConfig{})
	r, err := vm.HotplugAdd(2 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.HotplugRemove(r); err != nil {
		t.Fatal(err)
	}
	free := h.Mem.FreeFrames()
	if err := vm.HotplugRemove(r); err != nil {
		t.Fatalf("idempotent remove: %v", err)
	}
	if h.Mem.FreeFrames() != free {
		t.Error("second remove double-freed host frames")
	}
}

// TestShadowSyncUnbackedGPA covers the shadow-paging glue error: the
// guest table resolves the gVA but the gPA has no nested backing (e.g.
// the VMM ballooned it out), so the sync must fail rather than install a
// dangling shadow entry.
func TestShadowSyncUnbackedGPA(t *testing.T) {
	_, vm := newHostVM(t, 64, 16, VMConfig{})
	sh, err := vm.NewShadowContext()
	if err != nil {
		t.Fatal(err)
	}
	pt, err := pagetable.New(vm.host.Mem)
	if err != nil {
		t.Fatal(err)
	}
	// gPA 1GB is far outside the 16MB VM: never backed in the nPT.
	if err := pt.Map(0x4000, 1<<30, addr.Page4K); err != nil {
		t.Fatal(err)
	}
	err = sh.SyncPage(pt, 0x4123)
	if err == nil || !strings.Contains(err.Error(), "not backed") {
		t.Fatalf("sync of unbacked gPA: err = %v", err)
	}
	if _, _, ok := sh.Shadow.Translate(0x4000); ok {
		t.Error("failed sync installed a shadow entry")
	}
}

// TestShadowSyncRepeatIsNoop covers the overlap race: a second sync of
// an already-shadowed page charges an exit but succeeds.
func TestShadowSyncRepeatIsNoop(t *testing.T) {
	_, vm := newHostVM(t, 64, 16, VMConfig{})
	sh, err := vm.NewShadowContext()
	if err != nil {
		t.Fatal(err)
	}
	pt, err := pagetable.New(vm.host.Mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := pt.Map(0x8000, 0x20000, addr.Page4K); err != nil {
		t.Fatal(err)
	}
	if err := sh.SyncPage(pt, 0x8000); err != nil {
		t.Fatal(err)
	}
	if err := sh.SyncPage(pt, 0x8fff); err != nil {
		t.Fatalf("repeat sync: %v", err)
	}
	if exits, _ := sh.Exits(); exits != 2 {
		t.Errorf("exits = %d, want 2 (both syncs are VM exits)", exits)
	}
}

// TestShadowHostExhausted covers the allocation failures in the glue:
// creating a shadow table, and growing one, both need host frames.
func TestShadowHostExhausted(t *testing.T) {
	h, vm := newHostVM(t, 32, 16, VMConfig{})
	sh, err := vm.NewShadowContext()
	if err != nil {
		t.Fatal(err)
	}
	pt, err := pagetable.New(vm.host.Mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := pt.Map(0x4000, 0x10000, addr.Page4K); err != nil {
		t.Fatal(err)
	}
	exhaustHost(t, h)
	// Syncing a fresh page needs new shadow table pages: must surface
	// the allocation failure.
	if err := sh.SyncPage(pt, 0x4000); err == nil {
		t.Error("SyncPage succeeded with no host frames for shadow tables")
	}
	if _, err := vm.NewShadowContext(); err == nil {
		t.Error("NewShadowContext succeeded with no host frames")
	}
}
