package escape

import (
	"testing"

	"vdirect/internal/trace"
)

func BenchmarkInsert(b *testing.B) {
	f := New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Insert(uint64(i))
	}
}

// probePFNs returns 4096 random 36-bit frames (256 GB of 4K pages), so
// the hash sees full-width input that no branch predictor can learn.
func probePFNs() []uint64 {
	r := trace.NewRand(3)
	pfns := make([]uint64, 4096)
	for i := range pfns {
		pfns[i] = r.Uint64n(1 << 36)
	}
	return pfns
}

// BenchmarkMayContainMiss probes a filter holding 16 escaped pages, the
// paper's faulty-page load, so every probe hashes and some pass bank 0
// and read more.
func BenchmarkMayContainMiss(b *testing.B) {
	f := New(1)
	for i := uint64(0); i < 16; i++ {
		f.Insert(i * 7919)
	}
	pfns := probePFNs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.MayContain(pfns[i&(len(pfns)-1)])
	}
}

// BenchmarkMayContainEmpty is the Dual Direct 0D path with no escaped
// pages: every probe returns at the empty-filter check without hashing.
func BenchmarkMayContainEmpty(b *testing.B) {
	f := New(1)
	pfns := probePFNs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.MayContain(pfns[i&(len(pfns)-1)])
	}
}
