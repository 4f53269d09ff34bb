package tlb

import (
	"testing"

	"vdirect/internal/addr"
	"vdirect/internal/trace"
)

func BenchmarkSetAssocLookupHit(b *testing.B) {
	c := NewSetAssoc("b", 512, 4)
	for i := uint64(0); i < 512; i++ {
		c.Insert(KindGuest, i, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(KindGuest, uint64(i)&511)
	}
}

// BenchmarkSetAssocLookupHitRandom probes resident VPNs in a random
// order, so the hit way changes from probe to probe as it does on a
// walk-heavy miss stream. (BenchmarkSetAssocLookupHit's i&511 sweep
// keeps one way for 128 probes in a row, which a branch predictor
// learns.)
func BenchmarkSetAssocLookupHitRandom(b *testing.B) {
	c := NewSetAssoc("b", 512, 4)
	for i := uint64(0); i < 512; i++ {
		c.Insert(KindGuest, i, i)
	}
	r := trace.NewRand(1)
	vpns := make([]uint64, 4096)
	for i := range vpns {
		vpns[i] = r.Uint64n(512)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ppnSink, _ = c.Lookup(KindGuest, vpns[i&4095])
	}
}

// ppnSink keeps the compiler from discarding a benchmarked probe.
var ppnSink uint64

func BenchmarkSetAssocLookupMiss(b *testing.B) {
	c := NewSetAssoc("b", 512, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(KindGuest, uint64(i))
	}
}

func BenchmarkSetAssocInsert(b *testing.B) {
	c := NewSetAssoc("b", 512, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Insert(KindGuest, uint64(i), uint64(i))
	}
}

func BenchmarkL1MultiSizeLookup(b *testing.B) {
	l1 := NewL1(SandyBridgeL1)
	r := trace.NewRand(1)
	for i := 0; i < 64; i++ {
		l1.Insert(r.Uint64n(1<<30)&^0xfff, uint64(i)<<12, addr.Page4K)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l1.Lookup(uint64(i) << 12)
	}
}

func BenchmarkPWCSkipLevel(b *testing.B) {
	p := NewPWC()
	p.FillFrom(0x7f0000000000, 0, addr.LvlPT)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.SkipLevel(0x7f0000000000 + uint64(i)<<12)
	}
}
