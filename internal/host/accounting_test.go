package host

import (
	"fmt"
	"testing"
)

// backedFrame returns the lowest host frame the VMM registers to g.
func backedFrame(t *testing.T, s *Sim, g *Guest) uint64 {
	t.Helper()
	for f := uint64(0); f < s.Host.Mem.Frames(); f++ {
		if vm, _, ok := s.Host.OwnerVM(f); ok && vm == g.VM {
			return f
		}
	}
	t.Fatalf("no host frame backs %s", g.Name)
	return 0
}

// TestCheckAccountingCatchesCrossStamp: a frame the VMM registers to one
// admitted guest but physmem stamps for another. Two guests' frames
// trade stamps, so every owner's count, and so the allocator's own
// books, still agree; only the cross-layer check can see it, at the
// lower of the two frames.
func TestCheckAccountingCatchesCrossStamp(t *testing.T) {
	s, err := NewSim(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CheckAccounting(); err != nil {
		t.Fatal(err)
	}
	a, b := s.Guests[0], s.Guests[1]
	fa, fb := backedFrame(t, s, a), backedFrame(t, s, b)
	mem := s.Host.Mem
	for _, f := range []uint64{fa, fb} {
		if err := mem.FreeFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	prev := mem.SetAllocOwner(b.Owner())
	if err := mem.AllocFrameAt(fa); err != nil {
		t.Fatal(err)
	}
	mem.SetAllocOwner(a.Owner())
	if err := mem.AllocFrameAt(fb); err != nil {
		t.Fatal(err)
	}
	mem.SetAllocOwner(prev)
	if err := mem.CheckOwnerAccounting(); err != nil {
		t.Fatalf("the stamp swap broke the allocator's books: %v", err)
	}
	want := fmt.Sprintf("host: frame %d backs %s but is stamped owner %d", fa, a.Name, b.Owner())
	if fb < fa {
		want = fmt.Sprintf("host: frame %d backs %s but is stamped owner %d", fb, b.Name, a.Owner())
	}
	if err := s.CheckAccounting(); err == nil || err.Error() != want {
		t.Fatalf("CheckAccounting = %v, want %q", err, want)
	}
}

// TestCheckAccountingCatchesFreedBacking: a frame the VMM still
// registers to a guest but the allocator has freed. Allocating another
// frame for the same owner and then freeing it keeps the owner's count,
// so again only the cross-layer check can see it.
func TestCheckAccountingCatchesFreedBacking(t *testing.T) {
	s, err := NewSim(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	g := s.Guests[1]
	f := backedFrame(t, s, g)
	mem := s.Host.Mem
	prev := mem.SetAllocOwner(g.Owner())
	if _, err := mem.AllocFrame(); err != nil {
		t.Fatal(err)
	}
	mem.SetAllocOwner(prev)
	if err := mem.FreeFrame(f); err != nil {
		t.Fatal(err)
	}
	if err := mem.CheckOwnerAccounting(); err != nil {
		t.Fatalf("the refill broke the allocator's books: %v", err)
	}
	want := fmt.Sprintf("host: frame %d registered to %s but not allocated", f, g.Name)
	if err := s.CheckAccounting(); err == nil || err.Error() != want {
		t.Fatalf("CheckAccounting = %v, want %q", err, want)
	}
}
