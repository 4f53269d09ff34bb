// Result types and end-of-run host metrics: the fragmentation curve
// (free-space shape plus how many more direct-segment reservations the
// host could still satisfy) and per-guest translation statistics with
// escape-filter cost.

package host

import (
	"fmt"

	"vdirect/internal/addr"
	"vdirect/internal/mmu"
	"vdirect/internal/perfmodel"
	"vdirect/internal/physmem"
)

// GuestResult is one guest's end-of-run report.
type GuestResult struct {
	Guest int
	Mode  mmu.Mode
	// Direct reports whether admission could still carve the contiguous
	// host run a VMM segment needs.
	Direct bool

	Accesses   uint64
	WalkCycles uint64
	// Overhead is walk cycles over ideal execution cycles (§VIII).
	Overhead float64
	Stats    mmu.Stats

	// EscapedPages is the exact count of pages host services pushed
	// into the guest's VMM escape filter; EscapeProbes/EscapeTaken are
	// the measured filter traffic (taken minus members ≈ Bloom false
	// positives).
	EscapedPages int

	// OwnerFrames is the host-frame count attributed to the guest by
	// the allocator's owner accounting (backing + nested-table pages).
	OwnerFrames uint64

	// Policy-op counters.
	Balloons, Hotplugs, Retires, SharedIn, CoWBreaks, Migrations uint64
}

// Result is one whole-host cell's report.
type Result struct {
	Density int
	// DirectGuests is how many guests were admitted Dual Direct before
	// the host ran out of contiguous runs — the knee coordinate.
	DirectGuests int
	Guests       []GuestResult

	// Frag is the host free-space shape at end of run; Creatable is how
	// many more guest-sized direct reservations the allocator could
	// still satisfy (0 = past the knee). Run leaves both zero; the
	// density readers fill them through Sim.Fragmentation.
	Frag      physmem.FragReport
	Creatable uint64

	// Aggregate overhead across guests, and the worst single guest —
	// the noisy-neighbour view.
	Overhead   float64
	WorstGuest float64

	// EscapeProbes/EscapeTaken summed over guests: the escape-filter
	// cost of density.
	EscapeProbes, EscapeTaken uint64
}

// collect builds the Result from the finished simulation. Stats are
// captured before the cross-check so its probe traffic never shows up
// in reported counters.
func (s *Sim) collect() Result {
	res := Result{Density: len(s.Guests)}
	cpi := s.Guests[0].workloads[0].BaseCPI() // every tenant runs the same workload
	worst := 0.0
	var totalAccesses, totalCycles uint64
	for _, g := range s.Guests {
		st := g.MMU.Stats()
		var accesses uint64
		for _, a := range g.accesses {
			accesses += a
		}
		ideal := float64(accesses) * cpi
		gr := GuestResult{
			Guest:        g.Index,
			Mode:         g.Mode,
			Direct:       g.Direct,
			Accesses:     accesses,
			WalkCycles:   g.walkCycles,
			Overhead:     perfmodel.Overhead(float64(g.walkCycles), ideal),
			Stats:        st,
			EscapedPages: len(g.escaped),
			OwnerFrames:  s.Host.Mem.OwnerFrames(g.Owner()),
			Balloons:     g.Balloons,
			Hotplugs:     g.Hotplugs,
			Retires:      g.Retires,
			SharedIn:     g.SharedIn,
			CoWBreaks:    g.CoWBreaks,
			Migrations:   g.Migrations,
		}
		if g.Direct {
			res.DirectGuests++
		}
		if gr.Overhead > worst {
			worst = gr.Overhead
		}
		totalAccesses += accesses
		totalCycles += g.walkCycles
		res.EscapeProbes += st.EscapeProbes
		res.EscapeTaken += st.EscapeTaken
		res.Guests = append(res.Guests, gr)
	}
	res.Overhead = perfmodel.Overhead(float64(totalCycles), float64(totalAccesses)*cpi)
	res.WorstGuest = worst
	return res
}

// Fragmentation fills res's end-of-run fragmentation readings, Frag
// and Creatable, which only the density sweep reports. Run changes no
// host frame after replay, so the readings are those the run ended on.
func (s *Sim) Fragmentation(res *Result) {
	res.Frag = s.Host.Mem.FragStats()
	// Cap the trial allocation by host capacity (not density — the cap
	// must be identical across a density sweep for the curve to be
	// comparable).
	res.Creatable = s.Host.Mem.ProbeContiguous(
		s.guestSize>>addr.PageShift4K, 1, s.Cfg.HostMemory/s.guestSize+1)
}

// CheckAccounting verifies the shared allocator's owner books and the
// cross-layer frame-attribution invariant: every frame the VMM's owner
// registry assigns to a VM is stamped, in physmem, with that VM's
// guest owner (canonical copy-on-write frames count toward the guest
// that owns the canonical mapping).
func (s *Sim) CheckAccounting() error {
	if err := s.Host.Mem.CheckOwnerAccounting(); err != nil {
		return err
	}
	for f := uint64(0); f < s.Host.Mem.Frames(); f++ {
		vm, _, ok := s.Host.OwnerVM(f)
		if !ok {
			continue
		}
		g := s.byVM[vm]
		if g == nil {
			return fmt.Errorf("host: frame %d registered to unknown VM %s", f, vm.Name)
		}
		owner, tracked := s.Host.Mem.FrameOwner(f)
		if !tracked {
			return fmt.Errorf("host: frame %d registered to %s but not allocated", f, g.Name)
		}
		if owner != g.Owner() {
			return fmt.Errorf("host: frame %d backs %s but is stamped owner %d", f, g.Name, owner)
		}
	}
	return nil
}
