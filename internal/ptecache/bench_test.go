package ptecache

import (
	"testing"

	"vdirect/internal/trace"
)

// BenchmarkAccessHit probes random resident lines of the Default cache:
// every access hits, in a way that changes from probe to probe, as the
// PTE reads of a random-access page walk do.
func BenchmarkAccessHit(b *testing.B) {
	c := New(Default)
	for line := uint64(0); line < uint64(Default.Lines); line++ {
		c.Access(line << lineShift)
	}
	r := trace.NewRand(1)
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = r.Uint64n(uint64(Default.Lines)) << lineShift
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		costSink = c.Access(addrs[i&4095])
	}
}

// costSink keeps the compiler from discarding a benchmarked access.
var costSink uint64
