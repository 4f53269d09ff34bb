// Property tests over the host layer: the fragmentation curve is
// monotone in density (with churn fixed, a denser host can never
// create more direct segments), and the shared allocator's owner books
// stay exact under arbitrary policy-op sequences.

package host

import (
	"testing"

	"vdirect/internal/addr"
	"vdirect/internal/physmem"
)

// TestCreatableMonotoneInDensity fixes the host size and the churn
// seed and sweeps density: the number of still-creatable direct
// reservations must never increase as guests are added.
func TestCreatableMonotoneInDensity(t *testing.T) {
	base := testConfig(1)
	gs := base.GuestSize()
	hostMem := addr.AlignUp(4*gs+gs/2+(16<<20), addr.PageSize4K)

	prev := ^uint64(0)
	for density := 1; density <= 5; density++ {
		cfg := testConfig(density)
		cfg.HostMemory = hostMem
		cfg.SkipCrossCheck = true // covered elsewhere; keep the sweep fast
		s, err := NewSim(cfg)
		if err != nil {
			t.Fatalf("density %d: %v", density, err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatalf("density %d: %v", density, err)
		}
		s.Fragmentation(&res)
		if res.Creatable > prev {
			t.Fatalf("density %d: creatable segments rose %d -> %d", density, prev, res.Creatable)
		}
		prev = res.Creatable
		if density == 5 && res.Creatable != 0 {
			t.Errorf("density 5 on a 4.5-guest host still reports %d creatable runs", res.Creatable)
		}
	}
}

// TestKneeHostMemory pins the density sweeps' host size: room for the
// knee density (5/8 of the deepest density, at least 1) of guests, plus
// half a guest and 16MB, so the knee lands inside the sweep.
func TestKneeHostMemory(t *testing.T) {
	cfg := testConfig(1)
	gs := cfg.GuestSize()
	for _, c := range []struct {
		maxDensity int
		knee       uint64
	}{{0, 1}, {1, 1}, {4, 2}, {8, 5}, {12, 7}} {
		want := addr.AlignUp(c.knee*gs+gs/2+(16<<20), addr.PageSize4K)
		if got := cfg.KneeHostMemory(c.maxDensity); got != want {
			t.Errorf("KneeHostMemory(%d) = %d, want %d (%d guests)", c.maxDensity, got, want, c.knee)
		}
	}
}

// TestOwnerAccountingUnderChurn admits guests, then runs a long policy
// op sequence, verifying after every op that (a) physmem's owner books
// sum exactly to the allocated-frame count, (b) every frame the VMM
// registry assigns to a VM carries that guest's owner stamp, and (c)
// each guest's stamped total equals its registered backing plus its
// nested table's pages.
func TestOwnerAccountingUnderChurn(t *testing.T) {
	cfg := tightConfig(3)
	s, err := NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for op := 0; op < 200; op++ {
		if err := s.policyOp(); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		if err := s.CheckAccounting(); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		if err := checkFrameBooks(s); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
	}
	// The allocator's own red-button check still passes after the
	// sequence, and replay still completes on the churned host.
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := checkFrameBooks(s); err != nil {
		t.Fatal(err)
	}
}

// checkFrameBooks cross-checks three independent sets of books: the
// allocator's per-owner stamp counts, the VMM's frame→(vm,gpa)
// registry, and each nested table's page count. Shared canonical
// frames are registered (and stamped) to the guest owning the
// canonical mapping, so the identity is exact.
func checkFrameBooks(s *Sim) error {
	for _, g := range s.Guests {
		stamped := s.Host.Mem.OwnerFrames(g.Owner())
		backed := g.VM.BackedFrames()
		tables := g.VM.NPT.TablePages()
		if stamped != backed+tables {
			return &bookError{g.Name, stamped, backed, tables}
		}
	}
	return nil
}

type bookError struct {
	guest                   string
	stamped, backed, tables uint64
}

func (e *bookError) Error() string {
	return "host: " + e.guest + ": stamped frames != backing + table pages " +
		"(see TestOwnerAccountingUnderChurn)"
}

// TestOwnersListed checks the allocator reports exactly the admitted
// guests (plus possibly OwnerNone) as owners.
func TestOwnersListed(t *testing.T) {
	cfg := testConfig(3)
	s, err := NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := map[physmem.OwnerID]bool{}
	for _, g := range s.Guests {
		want[g.Owner()] = true
	}
	for _, o := range s.Host.Mem.Owners() {
		if o == physmem.OwnerNone {
			continue
		}
		if !want[o] {
			t.Errorf("unexpected owner %d", o)
		}
		delete(want, o)
	}
	for o := range want {
		t.Errorf("guest owner %d missing from allocator books", o)
	}
}
