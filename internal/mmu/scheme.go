// Translation schemes. The MMU itself is mode-less hardware — segment
// registers, page-table pointers, and the flat-walker flag determine
// behaviour — but everything past an L1 TLB miss is owned by a Scheme:
// a self-contained implementation of one translation proposal (the six
// paper modes, plus post-paper contenders such as flattened nested page
// tables). Schemes live in a registry keyed by name so the oracle,
// experiment drivers, and command binaries select them without an enum.
//
// The active scheme is re-derived only on register writes
// (updateScheme), never on the translation path, so the hot loop pays
// exactly one interface call per L1 miss and nothing per hit.
package mmu

import (
	"fmt"
	"sort"
)

// Mode names a registered translation scheme. It is the scheme's
// registry key: Mode values print, compare, and select schemes by name.
type Mode string

// The six operating modes of Figure 3, plus the post-paper flattened
// nested page table scheme.
const (
	ModeNative          Mode = "Native"
	ModeDirectSegment   Mode = "DirectSegment"
	ModeBaseVirtualized Mode = "BaseVirtualized"
	ModeDualDirect      Mode = "DualDirect"
	ModeVMMDirect       Mode = "VMMDirect"
	ModeGuestDirect     Mode = "GuestDirect"
	ModeFlatNested      Mode = "FlatNested"
)

func (m Mode) String() string { return string(m) }

// Virtualized reports whether the named scheme uses two-level
// translation. Unregistered names report false.
func (m Mode) Virtualized() bool {
	s, ok := schemes[m]
	return ok && s.Virtualized()
}

// CostInput parameterizes a scheme's closed-form walk cost: the walk
// depths of the two dimensions' mappings and which dimensions resolved
// through a segment. The segment-enabled flags matter only to schemes
// whose register configuration is not fixed by their identity
// (FlatNested composes with any segment setup); the paper schemes
// imply them.
type CostInput struct {
	// GuestLevels is the guest-dimension walk depth (4K → 4, 2M → 3,
	// 1G → 2); NestedLevels likewise for the nested dimension.
	GuestLevels  uint64
	NestedLevels uint64
	// GuestCovered / VMMCovered report segment coverage of the gVA and
	// of the final gPA respectively.
	GuestCovered bool
	VMMCovered   bool
	// GuestSegEnabled / VMMSegEnabled are the register-enable states.
	GuestSegEnabled bool
	VMMSegEnabled   bool
}

// WalkCost is a closed-form cost-table entry: the exact reference and
// base-bound-check counts of one L1-miss resolution in a strict
// configuration (paging-structure caches and nested TLB disabled,
// escape filters clean, cold TLBs). internal/oracle pins every
// registered scheme's table against its own independent closed form.
type WalkCost struct {
	Refs   uint64
	Checks uint64
}

// KeyTemplate declares how a scheme's translations are keyed in the
// TLB hierarchy — which caches must honour ASID tagging and whether
// the shared L2 carries nested (per-VM, ASID-independent) entries.
// The conformance suite holds every scheme to its template.
type KeyTemplate struct {
	// GuestASIDTagged: composite gVA→hPA entries are per-address-space
	// (survive ContextSwitchASID, die on FlushASID of their tag).
	GuestASIDTagged bool
	// NestedShared: gPA→hPA entries are per-VM and survive guest
	// process switches.
	NestedShared bool
}

// Requirements declares what the OS/VMM layers must provide before the
// scheme can be the active one: which register sets are programmed,
// whether backing must be contiguous (segment offset arithmetic), and
// whether the VMM maintains flattened nested tables. vdirect and the
// experiment builders consume this instead of switching on mode names.
type Requirements struct {
	Virtualized       bool
	GuestSegment      bool
	VMMSegment        bool
	ContiguousBacking bool
	FlattenedNested   bool
}

// Scheme is one translation proposal. Implementations are stateless
// singletons: all mutable state lives in the MMU, so one scheme value
// serves every MMU instance.
type Scheme interface {
	// Name is the registry key (and the Mode the MMU reports).
	Name() Mode
	// Virtualized reports whether the scheme translates in two levels.
	Virtualized() bool
	// TranslateMiss resolves one access past an L1 miss — segment fast
	// paths, the L2 probe, and the scheme's walk machine — and returns
	// the hPA. It charges cost only as counts (segment checks, L2 and
	// nested-TLB probes, PTE references through the PTE cache), which
	// MMU.Stats prices into WalkCycles; it counts Walks once per walk,
	// and leaves a resolved miss's class and page size in the MMU's
	// walkClass and walkSize, from which the caller builds the Result and
	// the observers read the miss.
	TranslateMiss(m *MMU, gva uint64) (hpa uint64, fault *Fault)
	// WalkCost is the scheme's closed-form cost-table entry.
	WalkCost(in CostInput) WalkCost
	// Keys is the scheme's TLB/PWC key template.
	Keys() KeyTemplate
	// Requirements declares the register/backing setup the scheme needs.
	Requirements() Requirements
}

var schemes = make(map[Mode]Scheme)

// RegisterScheme adds a scheme to the registry. Registering two
// schemes under one name is a programming error and panics.
func RegisterScheme(s Scheme) {
	if _, dup := schemes[s.Name()]; dup {
		panic(fmt.Sprintf("mmu: duplicate registration of translation scheme %q", s.Name()))
	}
	schemes[s.Name()] = s
}

// SchemeByName looks a scheme up by its registry name.
func SchemeByName(name string) (Scheme, error) {
	s, ok := schemes[Mode(name)]
	if !ok {
		return nil, fmt.Errorf("mmu: unknown translation scheme %q (registered: %v)", name, SchemeNames())
	}
	return s, nil
}

// SchemeNames returns the registered scheme names, sorted.
func SchemeNames() []string {
	names := make([]string, 0, len(schemes))
	for m := range schemes {
		names = append(names, string(m))
	}
	sort.Strings(names)
	return names
}

// Schemes returns the registered schemes, sorted by name.
func Schemes() []Scheme {
	out := make([]Scheme, 0, len(schemes))
	for _, name := range SchemeNames() {
		out = append(out, schemes[Mode(name)])
	}
	return out
}

// The scheme singletons, also reachable through the registry. The MMU
// selects between them directly in updateScheme so the miss path never
// touches the map.
var (
	schemeNative          Scheme = nativeScheme{}
	schemeDirectSegment   Scheme = directSegmentScheme{}
	schemeBaseVirtualized Scheme = baseVirtualizedScheme{}
	schemeDualDirect      Scheme = dualDirectScheme{}
	schemeVMMDirect       Scheme = vmmDirectScheme{}
	schemeGuestDirect     Scheme = guestDirectScheme{}
	schemeFlatNested      Scheme = flatNestedScheme{}
)

func init() {
	RegisterScheme(schemeNative)
	RegisterScheme(schemeDirectSegment)
	RegisterScheme(schemeBaseVirtualized)
	RegisterScheme(schemeDualDirect)
	RegisterScheme(schemeVMMDirect)
	RegisterScheme(schemeGuestDirect)
	RegisterScheme(schemeFlatNested)
}

// updateScheme re-derives the active scheme from the current register
// configuration. It runs on register writes only — Translate and
// TranslateBlock never re-derive.
func (m *MMU) updateScheme() {
	g, v := m.segs.Guest.Enabled(), m.segs.VMM.Enabled()
	switch {
	case !m.virtualized && g:
		m.scheme = schemeDirectSegment
	case !m.virtualized:
		m.scheme = schemeNative
	case m.flatNested:
		m.scheme = schemeFlatNested
	case g && v:
		m.scheme = schemeDualDirect
	case v:
		m.scheme = schemeVMMDirect
	case g:
		m.scheme = schemeGuestDirect
	default:
		m.scheme = schemeBaseVirtualized
	}
}

// cost2D is the shared closed form for paged two-level schemes: the
// paper's mode table (ExpectWalk in internal/oracle, restated here as
// the schemes' own cost entries). When the VMM segment is enabled it
// is assumed to cover every gPA the walk touches (the §VI.A whole-guest
// contiguous reservation).
func cost2D(in CostInput, gSeg, vSeg bool) WalkCost {
	var c WalkCost
	if gSeg {
		c.Checks++
	}
	guestRefs := uint64(0)
	if !in.GuestCovered {
		guestRefs = in.GuestLevels
	}
	nested := guestRefs + 1
	if vSeg {
		c.Checks += nested
	} else {
		c.Refs += nested * in.NestedLevels
	}
	c.Refs += guestRefs
	return c
}
