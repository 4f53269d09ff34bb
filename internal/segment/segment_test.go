package segment

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestDisabled(t *testing.T) {
	r := Disabled()
	if r.Enabled() {
		t.Error("Disabled() enabled")
	}
	if r.Contains(0) {
		t.Error("disabled segment contains address")
	}
	if !strings.Contains(r.String(), "disabled") {
		t.Errorf("String = %q", r.String())
	}
	// BASE == LIMIT nonzero is also disabled (§III.B nullification).
	r2 := Registers{Base: 0x1000, Limit: 0x1000, Offset: 5}
	if r2.Enabled() || r2.Contains(0x1000) {
		t.Error("BASE==LIMIT segment not disabled")
	}
}

func TestContainsBounds(t *testing.T) {
	r := NewRegisters(0x10000, 0x90000, 0x4000)
	if r.Contains(0xffff) {
		t.Error("below BASE included")
	}
	if !r.Contains(0x10000) {
		t.Error("BASE excluded")
	}
	if !r.Contains(0x13fff) {
		t.Error("LIMIT-1 excluded")
	}
	if r.Contains(0x14000) {
		t.Error("LIMIT included")
	}
}

func TestTranslateForwardAndBackward(t *testing.T) {
	// Target above source.
	r := NewRegisters(0x10000, 0x90000, 0x4000)
	if got := r.Translate(0x10123); got != 0x90123 {
		t.Errorf("forward translate = %#x", got)
	}
	// Target below source (negative offset via wraparound).
	r2 := NewRegisters(0x90000, 0x10000, 0x4000)
	if got := r2.Translate(0x90123); got != 0x10123 {
		t.Errorf("backward translate = %#x", got)
	}
}

func TestRanges(t *testing.T) {
	r := NewRegisters(0x10000, 0x90000, 0x4000)
	if rr := r.Range(); rr.Start != 0x10000 || rr.Size != 0x4000 {
		t.Errorf("Range = %v", rr)
	}
	if tr := r.TargetRange(); tr.Start != 0x90000 || tr.Size != 0x4000 {
		t.Errorf("TargetRange = %v", tr)
	}
	if !strings.Contains(r.String(), "0x10000") {
		t.Errorf("String = %q", r.String())
	}
}

func TestTranslatePreservesOffsetWithinSegment(t *testing.T) {
	f := func(srcSeed, dstSeed, sizeSeed, probeSeed uint64) bool {
		size := sizeSeed%(1<<30) + 1
		src := srcSeed % (1 << 40)
		dst := dstSeed % (1 << 40)
		r := NewRegisters(src, dst, size)
		probe := src + probeSeed%size
		if !r.Contains(probe) {
			return false
		}
		return r.Translate(probe)-dst == probe-src
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
