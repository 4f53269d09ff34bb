// Package experiments drives the simulator to regenerate every figure
// and table of the paper's evaluation (§VIII, §IX). Each experiment
// returns typed rows plus a rendered table, so both the paperbench CLI
// and the benchmark harness print the same data.
package experiments

import (
	"fmt"
	"strings"

	"vdirect/internal/addr"
	"vdirect/internal/mmu"
	"vdirect/internal/workload"
)

// Spec describes one simulation cell: a workload under one translation
// configuration.
type Spec struct {
	// Workload is a Table V workload name.
	Workload string
	// WL sizes the workload trace.
	WL workload.Config
	// Mode selects the translation mode.
	Mode mmu.Mode
	// GuestPage is the page size the guest OS maps the primary region
	// with (paging-based modes; ignored when a guest segment covers it).
	GuestPage addr.PageSize
	// NestedPage is the page size the VMM backs guest memory with
	// (virtualized modes).
	NestedPage addr.PageSize
	// Label is the figure bar label ("4K+2M", "DD", ...).
	Label string
	// WarmupFrac is the fraction of the trace run before statistics
	// reset; default 0.2.
	WarmupFrac float64
	// BadPages inserts this many faulty host pages inside the VMM
	// segment, escaped through the filter (Figure 13).
	BadPages int
	// BadPageSeed varies the random bad-page set across trials.
	BadPageSeed uint64
	// MMU overrides hardware parameters (zero = defaults).
	MMU mmu.Config
}

// ParseConfig turns a figure bar label into a Spec skeleton. Labels:
//
//	"4K" "2M" "1G" "THP"      native paging at that page size
//	"DS"                      unvirtualized direct segment
//	"A+B"                     guest page A over nested page B (A,B in
//	                          4K/2M/1G/THP), base virtualized
//	"A+VD"                    VMM Direct with guest page A
//	"A+GD"                    Guest Direct (guest segment; A used for
//	                          non-primary mappings)
//	"DD"                      Dual Direct
//	"A+FL"                    flattened nested page tables with guest
//	                          page A (4K nested pages)
func ParseConfig(label string) (Spec, error) {
	s := Spec{Label: label, GuestPage: addr.Page4K, NestedPage: addr.Page4K}
	page := func(tok string) (addr.PageSize, error) {
		switch tok {
		case "4K":
			return addr.Page4K, nil
		case "2M", "THP":
			return addr.Page2M, nil
		case "1G":
			return addr.Page1G, nil
		}
		return 0, fmt.Errorf("experiments: bad page token %q in %q", tok, label)
	}
	switch label {
	case "DS":
		s.Mode = mmu.ModeDirectSegment
		return s, nil
	case "DD":
		s.Mode = mmu.ModeDualDirect
		return s, nil
	}
	parts := strings.Split(label, "+")
	switch len(parts) {
	case 1:
		p, err := page(parts[0])
		if err != nil {
			return Spec{}, err
		}
		s.Mode = mmu.ModeNative
		s.GuestPage = p
		return s, nil
	case 2:
		p, err := page(parts[0])
		if err != nil {
			return Spec{}, err
		}
		s.GuestPage = p
		switch parts[1] {
		case "VD":
			s.Mode = mmu.ModeVMMDirect
		case "GD":
			s.Mode = mmu.ModeGuestDirect
		case "FL":
			s.Mode = mmu.ModeFlatNested
		default:
			np, err := page(parts[1])
			if err != nil {
				return Spec{}, err
			}
			s.Mode = mmu.ModeBaseVirtualized
			s.NestedPage = np
		}
		return s, nil
	}
	return Spec{}, fmt.Errorf("experiments: cannot parse config %q", label)
}

// Scale selects how large the simulations run.
type Scale int

// Scales: Small keeps unit tests fast; Medium suits testing.B benches;
// Full is the paperbench setting whose outputs EXPERIMENTS.md records.
const (
	Small Scale = iota
	Medium
	Full
)

// WLConfig returns the workload sizing for a scale and workload class.
func (s Scale) WLConfig(class workload.Class, seed uint64) workload.Config {
	switch s {
	case Small:
		return workload.Config{Seed: seed, MemoryMB: 24, Ops: 50000}
	case Medium:
		return workload.Config{Seed: seed, MemoryMB: 96, Ops: 250000}
	default:
		if class == workload.BigMemory {
			// The paper runs 60-75GB datasets; 6GB preserves the
			// working-set : TLB-reach regime at ~1/12 scale and spans
			// more 1GB pages than the 4-entry 1GB TLB holds, so every
			// page size experiences pressure as in the paper.
			return workload.Config{Seed: seed, MemoryMB: 6144, Ops: 1200000}
		}
		return workload.Config{Seed: seed, MemoryMB: 384, Ops: 1000000}
	}
}

func (s Scale) String() string {
	switch s {
	case Small:
		return "small"
	case Medium:
		return "medium"
	default:
		return "full"
	}
}

// ParseScale is the inverse of Scale.String.
func ParseScale(name string) (Scale, error) {
	for _, s := range []Scale{Small, Medium, Full} {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("unknown scale %q", name)
}

// Figure11Configs are the big-memory figure's bars: four native
// configurations and nine virtualized ones.
func Figure11Configs() []string {
	return []string{
		"4K", "2M", "1G", "DS",
		"4K+4K", "4K+2M", "4K+1G", "2M+2M", "2M+1G", "1G+1G",
		"DD", "4K+VD", "4K+GD",
	}
}

// Figure12Configs are the compute figure's bars; compute workloads use
// THP rather than explicit huge pages (§VIII) and suit VMM Direct
// (Table II: Dual/Guest Direct target big-memory applications).
func Figure12Configs() []string {
	return []string{
		"4K", "THP",
		"4K+4K", "4K+2M", "THP+2M", "THP+1G",
		"4K+VD", "THP+VD",
	}
}

// Figure1Configs are the motivation figure's bars.
func Figure1Configs() []string {
	return []string{"4K", "4K+4K", "4K+2M", "4K+1G", "DD", "4K+VD"}
}
