// Package segment implements direct-segment registers (§II.B, §III).
//
// A direct segment maps a contiguous range of a source address space to
// a contiguous range of a target space with three registers:
//
//	BASE   — first source address covered
//	LIMIT  — first source address past the covered range
//	OFFSET — target = source + OFFSET for covered addresses
//
// The proposed hardware has two independent register sets: the guest
// segment (gVA→gPA, controlled by the guest OS per process) and the VMM
// segment (gPA→hPA, controlled by the VMM per VM). Setting BASE == LIMIT
// disables a set, which is how VMM Direct nullifies the guest segment
// and Guest Direct nullifies the VMM segment (§III.B, §III.C).
package segment

import (
	"fmt"

	"vdirect/internal/addr"
)

// Registers is one BASE/LIMIT/OFFSET register set. The zero value is a
// disabled segment (BASE == LIMIT == 0).
type Registers struct {
	Base   uint64
	Limit  uint64
	Offset uint64 // two's-complement addend; may represent negative deltas
}

// Disabled returns a nulled register set (BASE == LIMIT).
func Disabled() Registers { return Registers{} }

// NewRegisters builds a register set mapping [srcBase, srcBase+size) to
// [dstBase, dstBase+size).
func NewRegisters(srcBase, dstBase, size uint64) Registers {
	return Registers{
		Base:   srcBase,
		Limit:  srcBase + size,
		Offset: dstBase - srcBase, // wraps mod 2^64 for dst < src
	}
}

// Enabled reports whether the segment covers any address.
func (r Registers) Enabled() bool { return r.Limit > r.Base }

// Contains performs the hardware base-bound check BASE <= a < LIMIT.
func (r Registers) Contains(a uint64) bool { return a >= r.Base && a < r.Limit }

// Translate applies the segment: target = a + OFFSET. Callers must have
// established Contains(a); hardware does both in one cycle, and the
// simulator charges that cycle at the MMU layer.
func (r Registers) Translate(a uint64) uint64 { return a + r.Offset }

// Range returns the covered source range.
func (r Registers) Range() addr.Range {
	return addr.Range{Start: r.Base, Size: r.Limit - r.Base}
}

// TargetRange returns the covered target range.
func (r Registers) TargetRange() addr.Range {
	return addr.Range{Start: r.Base + r.Offset, Size: r.Limit - r.Base}
}

func (r Registers) String() string {
	if !r.Enabled() {
		return "segment{disabled}"
	}
	return fmt.Sprintf("segment{[%#x,%#x) +%#x}", r.Base, r.Limit, r.Offset)
}

// Pair is the full architectural state the proposal adds: guest segment
// registers (BASE_G/LIMIT_G/OFFSET_G) and VMM segment registers
// (BASE_V/LIMIT_V/OFFSET_V).
type Pair struct {
	Guest Registers // gVA → gPA
	VMM   Registers // gPA → hPA
}
