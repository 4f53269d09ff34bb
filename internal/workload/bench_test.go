package workload

import "testing"

// BenchmarkGenerate measures trace-construction cost per workload.
func BenchmarkGenerate(b *testing.B) {
	for _, name := range Names() {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w := New(name, Config{Seed: uint64(i) + 1, MemoryMB: 64, Ops: 100000})
				if w.AccessCount() == 0 {
					b.Fatal("empty trace")
				}
			}
		})
	}
}
