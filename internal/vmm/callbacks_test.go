// The host-layer seam: callback notifications, the frame-owner query,
// VM teardown, page retirement, and machine-level memory growth — the
// operations internal/host builds its accounting on.

package vmm

import (
	"errors"
	"testing"

	"vdirect/internal/addr"
	"vdirect/internal/physmem"
)

// shareTwoVMs builds two VMs with one identical page each and runs a
// sharing pass, returning the host and both VMs (b's page now maps
// a's canonical frame copy-on-write).
func shareTwoVMs(t *testing.T) (*Host, *VM, *VM) {
	t.Helper()
	h := NewHost(64 << 20)
	a, err := h.CreateVM(VMConfig{Name: "a", MemorySize: 4 << 20, NestedPageSize: addr.Page4K})
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.CreateVM(VMConfig{Name: "b", MemorySize: 4 << 20, NestedPageSize: addr.Page4K})
	if err != nil {
		t.Fatal(err)
	}
	a.SetPageContent(1<<12, 0xFEED)
	b.SetPageContent(2<<12, 0xFEED)
	rep, err := h.ScanAndShare([]*VM{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SharedPages != 1 || rep.SavedFrames != 1 {
		t.Fatalf("sharing report = %+v, want 1 shared page saving 1 frame", rep)
	}
	return h, a, b
}

// TestCallbacksFireOnMemoryOps drives every backing-changing operation
// once and checks its callback fires with the right VM, on the
// operation's goroutine, after the VMM's own bookkeeping.
func TestCallbacksFireOnMemoryOps(t *testing.T) {
	h := NewHost(64 << 20)
	vm, err := h.CreateVM(VMConfig{Name: "vm", MemorySize: 4 << 20, NestedPageSize: addr.Page4K})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	h.SetCallbacks(Callbacks{
		Ballooned: func(v *VM, gpa uint64) {
			if v != vm {
				t.Errorf("Ballooned fired for VM %q", v.cfg.Name)
			}
			// Bookkeeping first: the backing must already be gone.
			if _, _, ok := v.NPT.Translate(gpa); ok {
				t.Errorf("Ballooned fired with gPA %#x still backed", gpa)
			}
			counts["balloon"]++
		},
		Hotplugged: func(v *VM, r addr.Range) {
			if r.Size == 0 {
				t.Error("Hotplugged fired with an empty range")
			}
			counts["hotplug"]++
		},
		Unplugged: func(v *VM, gpa uint64) { counts["unplug"]++ },
	})

	r, err := vm.HotplugAdd(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Balloon([]uint64{r.Start >> addr.PageShift4K}); err != nil {
		t.Fatal(err)
	}
	if err := vm.HotplugRemove(addr.Range{Start: r.Start + addr.PageSize4K, Size: addr.PageSize4K}); err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"balloon": 1, "hotplug": 1, "unplug": 1}
	for k, n := range want {
		if counts[k] != n {
			t.Errorf("%s callback fired %d times, want %d", k, counts[k], n)
		}
	}
}

// TestCallbacksFireOnSharingOps checks the Shared and CoWBroken
// notifications: one per remapped duplicate (not the canonical copy),
// one per private-copy break.
func TestCallbacksFireOnSharingOps(t *testing.T) {
	h := NewHost(64 << 20)
	a, err := h.CreateVM(VMConfig{Name: "a", MemorySize: 4 << 20, NestedPageSize: addr.Page4K})
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.CreateVM(VMConfig{Name: "b", MemorySize: 4 << 20, NestedPageSize: addr.Page4K})
	if err != nil {
		t.Fatal(err)
	}
	var shared, cow []uint64
	h.SetCallbacks(Callbacks{
		Shared:    func(v *VM, gpa uint64) { shared = append(shared, gpa) },
		CoWBroken: func(v *VM, gpa uint64) { cow = append(cow, gpa) },
	})
	a.SetPageContent(1<<12, 0xFEED)
	b.SetPageContent(2<<12, 0xFEED)
	if got := b.PageContent(2 << 12); got != 0xFEED {
		t.Fatalf("PageContent = %#x, want 0xFEED", got)
	}
	if _, err := h.ScanAndShare([]*VM{a, b}); err != nil {
		t.Fatal(err)
	}
	if len(shared) != 1 || shared[0] != 2<<12 {
		t.Fatalf("Shared fired for %#x, want exactly the duplicate gPA 0x2000", shared)
	}
	broke, err := b.WriteFault(2 << 12)
	if err != nil {
		t.Fatal(err)
	}
	if !broke || len(cow) != 1 || cow[0] != 2<<12 {
		t.Fatalf("CoWBroken: broke=%v fired for %#x, want the faulting gPA 0x2000", broke, cow)
	}
}

// TestOwnerVM checks the frame-owner query the host layer's accounting
// cross-check is built on: backed frames name their VM and gPA, free
// and out-of-range frames do not.
func TestOwnerVM(t *testing.T) {
	h := NewHost(16 << 20)
	vm, err := h.CreateVM(VMConfig{Name: "vm", MemorySize: 4 << 20, NestedPageSize: addr.Page4K})
	if err != nil {
		t.Fatal(err)
	}
	hpa, _, ok := vm.NPT.Translate(addr.PageSize4K)
	if !ok {
		t.Fatal("gPA 0x1000 unbacked")
	}
	owner, gpa, ok := h.OwnerVM(physmem.AddrToFrame(hpa))
	if !ok || owner != vm || gpa != addr.PageSize4K {
		t.Fatalf("OwnerVM = (%v, %#x, %v), want (vm, 0x1000, true)", owner, gpa, ok)
	}
	if _, _, ok := h.OwnerVM(1 << 40); ok {
		t.Error("out-of-range frame reported an owner")
	}
	if err := vm.Balloon([]uint64{1}); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := h.OwnerVM(physmem.AddrToFrame(hpa)); ok {
		t.Error("ballooned-out frame still reports an owner")
	}
}

// TestDestroyVM checks teardown frees every frame the VM held —
// backing and nested-table pages both — and that a VM entangled in
// copy-on-write sharing refuses to die.
func TestDestroyVM(t *testing.T) {
	h := NewHost(16 << 20)
	freeBefore := h.Mem.FreeFrames()
	vm, err := h.CreateVM(VMConfig{Name: "vm", MemorySize: 4 << 20, NestedPageSize: addr.Page4K})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.DestroyVM(vm); err != nil {
		t.Fatal(err)
	}
	if got := h.Mem.FreeFrames(); got != freeBefore {
		t.Errorf("free frames after destroy = %d, want %d", got, freeBefore)
	}
	if len(h.VMs()) != 0 {
		t.Errorf("%d VMs registered after destroy", len(h.VMs()))
	}

	_, a, _ := shareTwoVMs(t)
	if err := a.host.DestroyVM(a); !errors.Is(err, ErrSharedBacking) {
		t.Errorf("destroying a sharing VM: err = %v, want ErrSharedBacking", err)
	}
}

// TestRetirePage checks hard-fault retirement: the page moves to a
// healthy replacement frame, unbacked pages are rejected, and shared
// frames must break sharing first.
func TestRetirePage(t *testing.T) {
	h := NewHost(16 << 20)
	vm, err := h.CreateVM(VMConfig{Name: "vm", MemorySize: 4 << 20, NestedPageSize: addr.Page4K})
	if err != nil {
		t.Fatal(err)
	}
	oldHPA, _, _ := vm.NPT.Translate(0)
	newHPA, err := vm.RetirePage(0)
	if err != nil {
		t.Fatal(err)
	}
	if newHPA == oldHPA {
		t.Error("retirement kept the failing frame")
	}
	if hpa, _, ok := vm.NPT.Translate(0); !ok || hpa != newHPA {
		t.Errorf("gPA 0 maps %#x, want the replacement %#x", hpa, newHPA)
	}
	if owner, gpa, ok := h.OwnerVM(physmem.AddrToFrame(newHPA)); !ok || owner != vm || gpa != 0 {
		t.Error("replacement frame not registered to the VM")
	}

	if _, err := vm.RetirePage(uint64(4<<20) + addr.PageSize4K); err == nil {
		t.Error("retiring an unbacked gPA succeeded")
	}

	_, a, _ := shareTwoVMs(t)
	if _, err := a.RetirePage(1 << 12); err == nil {
		t.Error("retiring a shared frame succeeded")
	}
}

// TestMigrateRejectsSharedBacking: live migration while the VM holds
// copy-on-write shared frames would free frames other VMs still map.
func TestMigrateRejectsSharedBacking(t *testing.T) {
	h, a, _ := shareTwoVMs(t)
	dst := NewHost(64 << 20)
	if _, _, err := h.Migrate(a, dst, nil, 0, 4); !errors.Is(err, ErrSharedBacking) {
		t.Fatalf("err = %v, want ErrSharedBacking", err)
	}
}

// TestMigrateAbortRestoresDestination starves the destination host so
// the pre-copy runs out of frames mid-stream: the migration must fail,
// release everything the half-built destination VM held, and leave the
// source VM untouched and runnable.
func TestMigrateAbortRestoresDestination(t *testing.T) {
	src := NewHost(64 << 20)
	dst := NewHost(8 << 20) // too small for a 16MB guest
	vm, err := src.CreateVM(VMConfig{Name: "vm", MemorySize: 16 << 20, NestedPageSize: addr.Page4K})
	if err != nil {
		t.Fatal(err)
	}
	var migrated int
	dst.SetCallbacks(Callbacks{Migrated: func(*VM, MigrationReport) { migrated++ }})
	dstFree := dst.Mem.FreeFrames()
	srcFree := src.Mem.FreeFrames()
	if _, _, err := src.Migrate(vm, dst, nil, 0, 4); err == nil {
		t.Fatal("migration onto a starved destination succeeded")
	}
	if migrated != 0 {
		t.Error("Migrated callback fired for an aborted migration")
	}
	if got := dst.Mem.FreeFrames(); got != dstFree {
		t.Errorf("destination free frames = %d, want %d (aborted copy leaked)", got, dstFree)
	}
	if got := src.Mem.FreeFrames(); got != srcFree {
		t.Errorf("source free frames = %d, want %d", got, srcFree)
	}
	if len(src.VMs()) != 1 || len(dst.VMs()) != 0 {
		t.Errorf("VM registries after abort: src=%d dst=%d, want 1/0", len(src.VMs()), len(dst.VMs()))
	}
	if _, _, ok := vm.NPT.Translate(0); !ok {
		t.Error("source VM lost its backing after the aborted migration")
	}
}

// TestMigrateFiresMigratedCallback: a successful migration notifies
// the destination host's layer with the registered VM.
func TestMigrateFiresMigratedCallback(t *testing.T) {
	src := NewHost(32 << 20)
	dst := NewHost(32 << 20)
	vm, err := src.CreateVM(VMConfig{Name: "vm", MemorySize: 4 << 20, NestedPageSize: addr.Page4K})
	if err != nil {
		t.Fatal(err)
	}
	var got *VM
	dst.SetCallbacks(Callbacks{Migrated: func(v *VM, rep MigrationReport) { got = v }})
	moved, _, err := src.Migrate(vm, dst, nil, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got != moved {
		t.Error("Migrated callback did not receive the destination VM")
	}
}

// TestCreateVMRollsBackOnHostOOM starves the host below the guest size
// for each backing strategy: creation must fail and leak nothing.
func TestCreateVMRollsBackOnHostOOM(t *testing.T) {
	cases := []struct {
		name string
		cfg  VMConfig
	}{
		{"chunked-4k", VMConfig{NestedPageSize: addr.Page4K}},
		{"chunked-2m", VMConfig{NestedPageSize: addr.Page2M}},
		{"contiguous", VMConfig{NestedPageSize: addr.Page4K, ContiguousBacking: true}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := NewHost(2 << 20)
			freeBefore := h.Mem.FreeFrames()
			c.cfg.Name = "vm"
			c.cfg.MemorySize = 8 << 20
			vm, err := h.CreateVM(c.cfg)
			if err == nil {
				t.Fatal("CreateVM succeeded on a host smaller than the guest")
			}
			if c.cfg.ContiguousBacking && !errors.Is(err, ErrHostFragmented) {
				t.Errorf("err = %v, want ErrHostFragmented", err)
			}
			if vm != nil {
				t.Error("failed CreateVM returned a VM")
			}
			if got := h.Mem.FreeFrames(); got != freeBefore {
				t.Errorf("free frames = %d, want %d (failed creation leaked)", got, freeBefore)
			}
			if len(h.VMs()) != 0 {
				t.Errorf("%d VMs registered after failed creation", len(h.VMs()))
			}
		})
	}
}

// TestHotplugAddRollsBackOnHostOOM fills the host, then hotplugs more
// than remains: the partial backing must roll back completely.
func TestHotplugAddRollsBackOnHostOOM(t *testing.T) {
	h := NewHost(8 << 20)
	vm, err := h.CreateVM(VMConfig{Name: "vm", MemorySize: 6 << 20, NestedPageSize: addr.Page4K})
	if err != nil {
		t.Fatal(err)
	}
	freeBefore := h.Mem.FreeFrames()
	guestBefore := vm.GuestMem.Size()
	if _, err := vm.HotplugAdd(4 << 20); err == nil {
		t.Fatal("hotplug beyond host capacity succeeded")
	}
	if got := h.Mem.FreeFrames(); got != freeBefore {
		t.Errorf("free frames = %d, want %d (failed hotplug leaked)", got, freeBefore)
	}
	// The grown guest range stays offline; no backing may remain in it.
	for gpa := guestBefore; gpa < vm.GuestMem.Size(); gpa += addr.PageSize4K {
		if _, _, ok := vm.NPT.Translate(gpa); ok {
			t.Fatalf("gPA %#x still backed after failed hotplug", gpa)
		}
	}
}

// TestSavedFraction covers the §IX.E metric including its empty-scan
// guard.
func TestSavedFraction(t *testing.T) {
	if f := (SharingReport{}).SavedFraction(); f != 0 {
		t.Errorf("empty report fraction = %v, want 0", f)
	}
	rep := SharingReport{SavedFrames: 1, TotalFrames: 4}
	if f := rep.SavedFraction(); f != 0.25 {
		t.Errorf("fraction = %v, want 0.25", f)
	}
}
