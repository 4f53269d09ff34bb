package mmu

import "vdirect/internal/addr"

// flatNestedScheme is the first post-paper contender: flattened nested
// page tables. The VMM maintains, per guest page table, a set of
// "flat" host-resident tables that merge each interior guest level
// with its nested resolution: looking up the gL4, gL3, or gL2 entry
// for a gVA is a single host-physical reference into the flat table
// for that level, instead of a nested translation of the table's gPA
// (up to nL references) followed by the entry read. Only the gL1 entry
// — whose contents the guest rewrites at page-fault rates, too hot to
// mirror — and the final gPA still resolve through the nested
// dimension, collapsing the 24-reference 4K-on-4K walk to 12.
//
// The scheme composes with the paper's segments: enabled guest/VMM
// registers still flatten their dimension (including the 0D dual fast
// path). Past that, it runs the base 2D walk (walk2D); the one
// guest-table loop, walkGuestTable, resolves each interior reference
// to its flat-table entry (flatEntryAddr) instead of nested-
// translating it, so the scheme differs from the baseline only in what
// those references cost.
type flatNestedScheme struct{}

func (flatNestedScheme) Name() Mode        { return ModeFlatNested }
func (flatNestedScheme) Virtualized() bool { return true }

func (flatNestedScheme) Keys() KeyTemplate {
	return KeyTemplate{GuestASIDTagged: true, NestedShared: true}
}

func (flatNestedScheme) Requirements() Requirements {
	return Requirements{Virtualized: true, FlattenedNested: true}
}

func (flatNestedScheme) WalkCost(in CostInput) WalkCost {
	if in.GuestSegEnabled && in.VMMSegEnabled && in.GuestCovered && in.VMMCovered {
		// Both segments cover: the 0D fast path absorbs the miss.
		return WalkCost{Checks: 1}
	}
	var c WalkCost
	if in.GuestSegEnabled {
		c.Checks++
	}
	if in.GuestCovered {
		// Guest dimension flattened by the segment; one nested
		// translation of the final gPA, exactly as the base 2D form.
		if in.VMMSegEnabled {
			c.Checks++
		} else {
			c.Refs += in.NestedLevels
		}
		return c
	}
	// One flat-table reference per interior guest level; a 4K guest
	// leaf keeps its gL1 lookup in the nested dimension (2M/1G leaves
	// terminate at a flattened level).
	deep := uint64(0)
	if in.GuestLevels == 4 {
		deep = 1
	}
	c.Refs += in.GuestLevels // flat interior refs + the deep entry read
	nested := deep + 1       // gL1 ref (if any) + the final gPA
	if in.VMMSegEnabled {
		c.Checks += nested
	} else {
		c.Refs += nested * in.NestedLevels
	}
	return c
}

func (flatNestedScheme) TranslateMiss(m *MMU, gva uint64) (uint64, *Fault) {
	var cycles uint64
	if hpa, ok := m.dualFastPath(gva, &cycles); ok {
		return hpa, nil
	}
	return m.walk2D(gva)
}

// flatTableBase places the flat tables in a synthetic host-physical
// region far above modeled memory, so their references exercise the
// PTE cache without aliasing real table pages. Each level gets its own
// window; an entry's address is a pure function of (level, va prefix),
// giving flat references the same spatial locality a real merged table
// would have.
const flatTableBase = uint64(1) << 52

func flatEntryAddr(va uint64, level int) uint64 {
	shift := uint(addr.PageShift4K + 9*(addr.Levels-1-level))
	return flatTableBase | uint64(level)<<36 | va>>shift<<3
}

// flatResolves mirrors the VMM's software view of whether the nested
// dimension maps a guest table page: the flat-table entry shortcutting
// an interior level is valid exactly when the table page it covers is
// resolvable, by VMM segment arithmetic or the nested page table. This
// is VMM bookkeeping consulted at flat-table maintenance time, not
// hardware — no cycles, no references, no escape-filter probes.
func (m *MMU) flatResolves(gpa uint64) bool {
	if m.segs.VMM.Enabled() && m.segs.VMM.Contains(gpa) &&
		!m.escV.MayContain(gpa>>addr.PageShift4K) {
		return true
	}
	_, _, ok := m.nPT.Translate(gpa)
	return ok
}
