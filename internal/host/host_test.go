package host

import (
	"math"
	"strings"
	"testing"

	"vdirect/internal/mmu"
	"vdirect/internal/workload"
)

// testConfig returns a small but non-trivial host cell: guests per the
// density argument, two tenants each, on a host sized so the later
// admissions contend (the interesting regime).
func testConfig(density int) Config {
	return Config{
		Guests:          density,
		TenantsPerGuest: 2,
		Workload:        "gups",
		WL:              workload.Config{Seed: 1, MemoryMB: 8, Ops: 12000},
		GuestHeadroom:   24 << 20,
		BalloonFloor:    12 << 20,
		Seed:            42,
	}
}

func TestSmokeSingleGuest(t *testing.T) {
	cfg := testConfig(1)
	s, err := NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Density != 1 || len(res.Guests) != 1 {
		t.Fatalf("density = %d, guests = %d", res.Density, len(res.Guests))
	}
	g := res.Guests[0]
	if !g.Direct {
		t.Error("sole guest on an auto-sized host should admit Dual Direct")
	}
	if g.Accesses == 0 {
		t.Error("no accesses replayed")
	}
	if g.OwnerFrames == 0 {
		t.Error("no frames attributed to the guest")
	}
}

func TestDensityFourGuests(t *testing.T) {
	cfg := testConfig(4)
	s, err := NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Guests) != 4 {
		t.Fatalf("admitted %d guests, want 4", len(res.Guests))
	}
	for _, g := range res.Guests {
		if g.Accesses == 0 {
			t.Errorf("guest %d replayed no accesses", g.Guest)
		}
	}
	if res.DirectGuests == 0 {
		t.Error("no guest admitted Dual Direct")
	}
}

// TestNoDirectAdmitsBaseVirtualized: on an auto-sized host every guest
// fits Dual Direct, and NoDirect puts every one on 4K+4K instead.
func TestNoDirectAdmitsBaseVirtualized(t *testing.T) {
	for _, noDirect := range []bool{false, true} {
		cfg := testConfig(3)
		cfg.AdmitChurn, cfg.RoundChurn = -1, -1
		cfg.NoDirect = noDirect
		s, err := NewSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		want := mmu.ModeDualDirect
		if noDirect {
			want = mmu.ModeBaseVirtualized
		}
		for _, g := range res.Guests {
			if g.Mode != want || g.Direct != !noDirect {
				t.Errorf("NoDirect %v: guest %d admitted %v (direct %v), want %v",
					noDirect, g.Guest, g.Mode, g.Direct, want)
			}
		}
	}
}

// TestNewSimRefusesHostBeyondLimit: a host past MaxHostMemory, whether
// auto-sized for many guests or passed explicitly, is refused before
// NewSim allocates any of it, and the knee size saturates instead of
// wrapping round to a small host.
func TestNewSimRefusesHostBeyondLimit(t *testing.T) {
	many := testConfig(100000)
	explicit := testConfig(1)
	explicit.HostMemory = MaxHostMemory + 1<<20
	for _, cfg := range []Config{many, explicit} {
		if s, err := NewSim(cfg); err == nil || !strings.Contains(err.Error(), "limit") {
			t.Errorf("NewSim(%d guests, HostMemory %d) = %v, %v; want the limit error", cfg.Guests, cfg.HostMemory, s, err)
		}
	}
	for _, d := range []int{100000, math.MaxInt / 5 * 2, math.MaxInt} {
		if got := many.KneeHostMemory(d); got <= MaxHostMemory {
			t.Errorf("KneeHostMemory(%d) = %d, want more than MaxHostMemory", d, got)
		}
	}
}
