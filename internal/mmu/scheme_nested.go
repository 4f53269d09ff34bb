package mmu

// nested2DScheme is the shared miss path of the virtualized schemes
// that resolve through the 2D walk machine: probe the L2, then walk.
// Which dimensions the walk flattens is decided inside walk2D by
// the segment registers, exactly as Figure 5(b)'s hardware does — the
// embedding schemes differ in identity (name, cost table,
// requirements), not in miss-path code.
type nested2DScheme struct{}

func (nested2DScheme) Virtualized() bool { return true }

func (nested2DScheme) TranslateMiss(m *MMU, gva uint64) (uint64, *Fault) {
	return m.walk2D(gva)
}

// baseVirtualizedScheme is the unmodified 2D baseline: no segments,
// gL·(nL+1)+nL references per walk (24 for 4K-on-4K).
type baseVirtualizedScheme struct{ nested2DScheme }

func (baseVirtualizedScheme) Name() Mode { return ModeBaseVirtualized }

func (baseVirtualizedScheme) Keys() KeyTemplate {
	return KeyTemplate{GuestASIDTagged: true, NestedShared: true}
}

func (baseVirtualizedScheme) Requirements() Requirements {
	return Requirements{Virtualized: true}
}

func (baseVirtualizedScheme) WalkCost(in CostInput) WalkCost {
	return cost2D(in, false, false)
}

// vmmDirectScheme flattens the nested dimension with the VMM segment:
// guest walks become 1D (4 references, Δ_VD = 5 checks).
type vmmDirectScheme struct{ nested2DScheme }

func (vmmDirectScheme) Name() Mode { return ModeVMMDirect }

func (vmmDirectScheme) Keys() KeyTemplate {
	return KeyTemplate{GuestASIDTagged: true, NestedShared: true}
}

func (vmmDirectScheme) Requirements() Requirements {
	return Requirements{Virtualized: true, VMMSegment: true, ContiguousBacking: true}
}

func (vmmDirectScheme) WalkCost(in CostInput) WalkCost {
	return cost2D(in, false, true)
}

// guestDirectScheme flattens the guest dimension with the guest
// segment: covered gVAs resolve to gPA by arithmetic, leaving one
// nested walk (4 references, Δ_GD = 1 check).
type guestDirectScheme struct{ nested2DScheme }

func (guestDirectScheme) Name() Mode { return ModeGuestDirect }

func (guestDirectScheme) Keys() KeyTemplate {
	return KeyTemplate{GuestASIDTagged: true, NestedShared: true}
}

func (guestDirectScheme) Requirements() Requirements {
	return Requirements{Virtualized: true, GuestSegment: true}
}

func (guestDirectScheme) WalkCost(in CostInput) WalkCost {
	return cost2D(in, true, false)
}

// dualDirectScheme flattens both dimensions: an address covered by
// both segments resolves in zero references and one (combined)
// base-bound check — the 0D path.
type dualDirectScheme struct{ nested2DScheme }

func (dualDirectScheme) Name() Mode { return ModeDualDirect }

func (dualDirectScheme) Keys() KeyTemplate {
	return KeyTemplate{GuestASIDTagged: true, NestedShared: true}
}

func (dualDirectScheme) Requirements() Requirements {
	return Requirements{
		Virtualized:       true,
		GuestSegment:      true,
		VMMSegment:        true,
		ContiguousBacking: true,
	}
}

func (dualDirectScheme) WalkCost(in CostInput) WalkCost {
	if in.GuestCovered && in.VMMCovered {
		// The 0D fast path: Table II counts the two checks performed
		// together as one.
		return WalkCost{Checks: 1}
	}
	return cost2D(in, true, true)
}

func (dualDirectScheme) TranslateMiss(m *MMU, gva uint64) (uint64, *Fault) {
	var cycles uint64
	if hpa, ok := m.dualFastPath(gva, &cycles); ok {
		return hpa, nil
	}
	return m.walk2D(gva)
}
