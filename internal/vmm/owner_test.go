package vmm

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"testing"

	"vdirect/internal/addr"
)

// TestOwnerIDReuse pins the owner-word index recycling: a destroyed
// VM's ID returns to the free list and the next CreateVM takes it,
// keeping the packed owner words dense instead of growing the VM table
// forever under create/destroy churn.
func TestOwnerIDReuse(t *testing.T) {
	h, vm1 := newHostVM(t, 64, 8, VMConfig{Name: "a"})
	id := vm1.id
	if h.ownerVMs[id] != vm1 {
		t.Fatalf("owner table slot %d does not hold vm1", id)
	}
	if err := h.DestroyVM(vm1); err != nil {
		t.Fatal(err)
	}
	if h.ownerVMs[id] != nil {
		t.Fatalf("destroyed VM still registered in owner slot %d", id)
	}
	cfg := VMConfig{Name: "b", MemorySize: 8 << 20, NestedPageSize: addr.Page4K}
	vm2, err := h.CreateVM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if vm2.id != id {
		t.Fatalf("new VM got id %d, want recycled %d", vm2.id, id)
	}
	if h.ownerVMs[id] != vm2 {
		t.Fatalf("owner table slot %d does not hold vm2", id)
	}
}

// TestCreateVMRejectsBadMemorySize: zero and non-page-multiple sizes
// fail before any host state is touched.
func TestCreateVMRejectsBadMemorySize(t *testing.T) {
	h := NewHost(64 << 20)
	for _, size := range []uint64{0, 0x1001} {
		if _, err := h.CreateVM(VMConfig{Name: "bad", MemorySize: size}); err == nil {
			t.Fatalf("CreateVM accepted memory size %#x", size)
		}
	}
	if len(h.vms) != 0 || len(h.ownerVMs) != 0 {
		t.Fatal("failed CreateVM left host state behind")
	}
}

// TestOwnerMapBuiltOnFirstRead: CreateVM leaves the host's reverse map
// unbuilt, and the first OwnerVM builds it with the VM's backing in it.
func TestOwnerMapBuiltOnFirstRead(t *testing.T) {
	h := NewHost(32 << 20)
	vm, err := h.CreateVM(VMConfig{Name: "vm", MemorySize: 4 << 20, NestedPageSize: addr.Page4K})
	if err != nil {
		t.Fatal(err)
	}
	if h.owners != nil {
		t.Fatal("CreateVM built the reverse map")
	}
	hpa, _, ok := vm.NPT.Translate(0x5000)
	if !ok {
		t.Fatal("gPA 0x5000 unbacked")
	}
	if owner, gpa, ok := h.OwnerVM(hpa >> addr.PageShift4K); !ok || owner != vm || gpa != 0x5000 {
		t.Fatalf("OwnerVM = (%v, %#x, %v), want (vm, 0x5000, true)", owner, gpa, ok)
	}
	if uint64(len(h.owners)) != h.Mem.Frames() {
		t.Fatalf("after OwnerVM the reverse map holds %d frames, want %d", len(h.owners), h.Mem.Frames())
	}
	if got, want := vm.BackedFrames(), vm.NPT.Mappings(); got != want {
		t.Fatalf("BackedFrames = %d, want the %d nested leaves", got, want)
	}
}

// ownerScript runs one fixed sequence of every operation that changes
// which host frames back which guest pages, on h (the VMs' home) and
// dst (a migration destination): a contiguous VM and a chunked VM on a
// fragmented host, a chunked and a contiguous CreateVM that fail
// mid-backing, balloon, hotplug add and remove, page retirement,
// compaction, a migration to the same host and one to dst (with the
// source's teardown), a DestroyVM, then content-based sharing and a
// copy-on-write break.
func ownerScript(t *testing.T, h, dst *Host) {
	t.Helper()
	create := func(h *Host, cfg VMConfig) *VM {
		t.Helper()
		cfg.NestedPageSize = addr.Page4K
		vm, err := h.CreateVM(cfg)
		if err != nil {
			t.Fatalf("CreateVM %s: %v", cfg.Name, err)
		}
		return vm
	}
	fragmentHost(t, h, 4096)
	contig := create(h, VMConfig{Name: "contig", MemorySize: 8 << 20, ContiguousBacking: true})
	chunked := create(h, VMConfig{Name: "chunked", MemorySize: 8 << 20})

	// More guest memory than the host has free: Back4K runs out of
	// frames after mapping most of it.
	tooBig := addr.AlignUp(h.Mem.FreeFrames()<<addr.PageShift4K+4<<20, addr.PageSize2M)
	if _, err := h.CreateVM(VMConfig{Name: "too-big", MemorySize: tooBig, NestedPageSize: addr.Page4K}); err == nil {
		t.Fatal("CreateVM larger than the free host memory succeeded")
	}
	// A contiguous VM whose run fits but whose nested table does not:
	// four free frames past the run hold the PDPT, the PD and two PTs,
	// so mapping stops after 1024 pages.
	const guest = 8 << 20
	fill := dst.Mem.Frames() - (guest>>addr.PageShift4K + 5)
	first, err := dst.Mem.AllocContiguous(fill, 1)
	if err != nil {
		t.Fatal(err)
	}
	free := dst.Mem.FreeFrames()
	if _, err := dst.CreateVM(VMConfig{Name: "no-tables", MemorySize: guest, NestedPageSize: addr.Page4K, ContiguousBacking: true}); err == nil || errors.Is(err, ErrHostFragmented) {
		t.Fatalf("contiguous CreateVM without room for its nested table: err = %v, want a failure past the reservation", err)
	}
	if got := dst.Mem.FreeFrames(); got != free {
		t.Fatalf("failed contiguous CreateVM left %d free frames, want %d", got, free)
	}
	for f := first; f < first+fill; f++ {
		if err := dst.Mem.FreeFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	create(dst, VMConfig{Name: "resident", MemorySize: 4 << 20})

	if err := chunked.Balloon([]uint64{3, 4, 5, 700}); err != nil {
		t.Fatal(err)
	}
	r1, err := contig.HotplugAdd(2 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := contig.HotplugAdd(1 << 20); err != nil {
		t.Fatal(err)
	}
	if err := contig.HotplugRemove(r1); err != nil {
		t.Fatal(err)
	}
	if _, err := contig.RetirePage(0x3000); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Compact(); err != nil {
		t.Fatal(err)
	}

	dirtied := func(pass int) []uint64 {
		if pass == 0 {
			return []uint64{0x1000, 0x5000}
		}
		return nil
	}
	moved, _, err := h.Migrate(chunked, h, dirtied, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.Migrate(contig, dst, dirtied, 0, 4); err != nil {
		t.Fatal(err)
	}
	if err := h.DestroyVM(create(h, VMConfig{Name: "doomed", MemorySize: 2 << 20})); err != nil {
		t.Fatal(err)
	}

	sharer := create(h, VMConfig{Name: "sharer", MemorySize: 4 << 20})
	for i := uint64(0); i < 64; i++ {
		moved.SetPageContent(i<<12, 0xC0DE+i%32)
		sharer.SetPageContent(i<<12, 0xC0DE+i)
	}
	rep, err := h.ScanAndShare([]*VM{moved, sharer})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SharedPages == 0 {
		t.Fatal("sharing pass shared nothing")
	}
	if broke, err := sharer.WriteFault(0x2000); err != nil || !broke {
		t.Fatalf("WriteFault on a shared page = (%v, %v), want a CoW break", broke, err)
	}
}

// ownerView is one host's reverse map as its readers see it: each
// frame's owner (VM name and gPA) and each VM's backed-frame count.
type ownerView struct {
	frames []string
	backed map[string]uint64
}

func readOwners(h *Host) ownerView {
	v := ownerView{backed: map[string]uint64{}}
	for f := uint64(0); f < h.Mem.Frames(); f++ {
		s := "-"
		if vm, gpa, ok := h.OwnerVM(f); ok {
			s = fmt.Sprintf("%s@%#x", vm.Name, gpa)
		}
		v.frames = append(v.frames, s)
	}
	for _, vm := range h.VMs() {
		v.backed[vm.Name] = vm.BackedFrames()
	}
	return v
}

// TestOwnerMapBuiltLateMatchesEager runs ownerScript on two pairs of
// twin hosts. The early pair reads its reverse map right after NewHost,
// so every operation in the script updates a live map; the late pair
// reads it first at the end (sharing and compaction aside, which read
// it themselves). OwnerVM must agree for every frame, and BackedFrames
// for every VM.
func TestOwnerMapBuiltLateMatchesEager(t *testing.T) {
	early, earlyDst := NewHost(64<<20), NewHost(32<<20)
	late, lateDst := NewHost(64<<20), NewHost(32<<20)
	early.OwnerVM(0)
	earlyDst.OwnerVM(0)
	ownerScript(t, early, earlyDst)
	ownerScript(t, late, lateDst)
	for _, p := range []struct {
		name        string
		early, late *Host
	}{{"home", early, late}, {"destination", earlyDst, lateDst}} {
		e, l := readOwners(p.early), readOwners(p.late)
		for f := range e.frames {
			if e.frames[f] != l.frames[f] {
				t.Fatalf("%s host frame %d: owner %s when read early, %s when read late", p.name, f, e.frames[f], l.frames[f])
			}
		}
		if !maps.Equal(e.backed, l.backed) {
			t.Fatalf("%s host BackedFrames: %v when read early, %v when read late", p.name, e.backed, l.backed)
		}
		if len(e.backed) != 2 {
			t.Fatalf("%s host holds VMs %v, want two", p.name, e.backed)
		}
	}
}

// TestScanAndShareBuildsOwnerMapFirst: a sharing pass that is the
// host's first reader of its reverse map builds it before remapping,
// while each frame still has one owner. Built afterwards from the
// leaves, the canonical frame would go to whichever of its sharers the
// build visits last.
func TestScanAndShareBuildsOwnerMapFirst(t *testing.T) {
	hosts := []*Host{NewHost(64 << 20), NewHost(64 << 20)}
	hosts[0].OwnerVM(0)
	for _, h := range hosts {
		var vms []*VM
		for _, name := range []string{"a", "b"} {
			vm, err := h.CreateVM(VMConfig{Name: name, MemorySize: 4 << 20, NestedPageSize: addr.Page4K})
			if err != nil {
				t.Fatal(err)
			}
			for i := uint64(0); i < 16; i++ {
				vm.SetPageContent(i<<12, 0xFEED+i)
			}
			vms = append(vms, vm)
		}
		if _, err := h.ScanAndShare(vms); err != nil {
			t.Fatal(err)
		}
	}
	early, late := readOwners(hosts[0]), readOwners(hosts[1])
	if !slices.Equal(early.frames, late.frames) || !maps.Equal(early.backed, late.backed) {
		t.Fatalf("reverse map after sharing differs: BackedFrames %v when read before the pass, %v when the pass is the first reader",
			early.backed, late.backed)
	}
}
