package mmu

import (
	"vdirect/internal/addr"
	"vdirect/internal/telemetry/walkprof"
)

// nativeScheme is unvirtualized 1D paging: no segments, up to
// GuestLevels references per walk.
type nativeScheme struct{}

func (nativeScheme) Name() Mode        { return ModeNative }
func (nativeScheme) Virtualized() bool { return false }

func (nativeScheme) Keys() KeyTemplate { return KeyTemplate{GuestASIDTagged: true} }

func (nativeScheme) Requirements() Requirements { return Requirements{} }

func (nativeScheme) WalkCost(in CostInput) WalkCost {
	return WalkCost{Refs: in.GuestLevels}
}

func (nativeScheme) TranslateMiss(m *MMU, gva uint64) (uint64, *Fault) {
	if hpa, hit := m.probeL2(gva); hit {
		return hpa, nil
	}
	return m.nativeWalk(gva)
}

// directSegmentScheme is the unvirtualized direct segment (§III): a
// covered VA resolves by offset arithmetic in one base-bound check;
// uncovered (or escaped) addresses walk natively.
type directSegmentScheme struct{}

func (directSegmentScheme) Name() Mode        { return ModeDirectSegment }
func (directSegmentScheme) Virtualized() bool { return false }

func (directSegmentScheme) Keys() KeyTemplate { return KeyTemplate{GuestASIDTagged: true} }

func (directSegmentScheme) Requirements() Requirements {
	return Requirements{GuestSegment: true, ContiguousBacking: true}
}

func (directSegmentScheme) WalkCost(in CostInput) WalkCost {
	if in.GuestCovered {
		return WalkCost{Checks: 1}
	}
	// The segment check is charged only on the covered fast path, so an
	// invoked walk costs exactly the guest levels.
	return WalkCost{Refs: in.GuestLevels}
}

func (directSegmentScheme) TranslateMiss(m *MMU, gva uint64) (uint64, *Fault) {
	if hpa, hit := m.probeL2(gva); hit {
		return hpa, nil
	}
	// Segment calculation in parallel with the L2 lookup; covered
	// addresses skip the walk (§III.D).
	if m.segs.Guest.Enabled() && m.segs.Guest.Contains(gva) && !m.escapeGuest(gva) {
		m.stats.SegmentChecks++
		m.stats.ZeroDWalks++
		m.stats.GuestSegHits++
		pa := m.segs.Guest.Translate(gva)
		m.l1.Insert(gva, pa, addr.Page4K)
		m.l2.InsertGuest(gva, pa)
		m.walkClass, m.walkSize = walkprof.ClassZeroD, addr.Page4K
		return pa, nil
	}
	return m.nativeWalk(gva)
}
