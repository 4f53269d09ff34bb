// Ablation benchmarks for the simulator's design choices: what each
// hardware structure contributes to the measured behaviour. These back
// the DESIGN.md claims that the paging-structure caches and the shared
// nested TLB are load-bearing for the reproduction.
package vdirect

import (
	"testing"

	"vdirect/internal/experiments"
	"vdirect/internal/mmu"
	"vdirect/internal/tlb"
	"vdirect/internal/workload"
)

func runAblation(b *testing.B, wl, label string, hw mmu.Config) experiments.Result {
	b.Helper()
	spec, err := experiments.ParseConfig(label)
	if err != nil {
		b.Fatal(err)
	}
	spec.Workload = wl
	spec.WL = experiments.Medium.WLConfig(workload.ClassOf(wl), 1)
	spec.MMU = hw
	res, err := experiments.Run(spec)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkAblationPWC quantifies the paging-structure caches: without
// them every walk pays its full reference count, which is how the raw
// 24-vs-4 headline numbers become visible in cycle terms.
func BenchmarkAblationPWC(b *testing.B) {
	for _, c := range []struct {
		name    string
		disable bool
	}{{"with-PWC", false}, {"without-PWC", true}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := runAblation(b, "gups", "4K+4K", mmu.Config{DisablePWC: c.disable})
				refsPerWalk := float64(res.Stats.WalkMemRefs) / float64(res.Stats.Walks)
				b.ReportMetric(refsPerWalk, "refs/walk")
				b.ReportMetric(res.Overhead*100, "overhead%")
			}
		})
	}
}

// BenchmarkAblationNestedTLB isolates the shared nested TLB: disabling
// it removes both the caching benefit (walks get longer) and the
// capacity erosion (guest misses stop inflating) — the §IX.A tradeoff.
func BenchmarkAblationNestedTLB(b *testing.B) {
	for _, c := range []struct {
		name    string
		disable bool
	}{{"shared-nested-TLB", false}, {"no-nested-TLB", true}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := runAblation(b, "tlbstress", "4K+4K", mmu.Config{DisableNestedTLB: c.disable})
				b.ReportMetric(float64(res.Stats.Walks), "walks")
				b.ReportMetric(float64(res.Stats.NestedWalks), "nested-walks")
				b.ReportMetric(res.Overhead*100, "overhead%")
			}
		})
	}
}

// BenchmarkAblationSegmentCheckCost sweeps Δ, the base-bound check
// cost. The paper assumes 1 cycle per check (Δ_VD = 5, Δ_GD = 1); the
// sweep shows the conclusions are insensitive to the exact value.
func BenchmarkAblationSegmentCheckCost(b *testing.B) {
	for _, delta := range []uint64{1, 5, 20} {
		b.Run(checkName(delta), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := runAblation(b, "gups", "4K+VD", mmu.Config{SegmentCheckCycles: delta})
				b.ReportMetric(res.Overhead*100, "overhead%")
			}
		})
	}
}

func checkName(d uint64) string {
	switch d {
	case 1:
		return "delta-1cyc"
	case 5:
		return "delta-5cyc"
	default:
		return "delta-20cyc"
	}
}

// BenchmarkAblationL2Capacity sweeps the shared L2 TLB size, moving
// the capacity cliff the tlbstress microbenchmark sits on.
func BenchmarkAblationL2Capacity(b *testing.B) {
	for _, c := range []struct {
		name    string
		entries int
	}{{"L2-256", 256}, {"L2-512-TableVI", 512}, {"L2-2048", 2048}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := runAblation(b, "tlbstress", "4K+4K", mmu.Config{L2Entries: c.entries, L2Ways: 4})
				b.ReportMetric(float64(res.Stats.Walks), "walks")
				b.ReportMetric(res.Overhead*100, "overhead%")
			}
		})
	}
}

// BenchmarkAblationL1Geometry compares the Table VI L1 against a
// doubled one, showing the proposal's gains do not depend on a starved
// first level.
func BenchmarkAblationL1Geometry(b *testing.B) {
	double := tlb.Geometry{Entries4K: 128, Ways4K: 4, Entries2M: 64, Ways2M: 4, Entries1G: 8, Ways1G: 4}
	for _, c := range []struct {
		name string
		geo  tlb.Geometry
	}{{"TableVI-L1", tlb.SandyBridgeL1}, {"double-L1", double}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				base := runAblation(b, "graph500", "4K+4K", mmu.Config{L1: c.geo})
				dd := runAblation(b, "graph500", "DD", mmu.Config{L1: c.geo})
				b.ReportMetric(base.Overhead*100, "base-overhead%")
				b.ReportMetric(dd.Overhead*100, "DD-overhead%")
			}
		})
	}
}

// BenchmarkAblationFilterSize sweeps the escape filter's size with 16
// bad pages in Dual Direct: smaller filters saturate and push healthy
// pages onto the paging path; the paper's 256 bits suffice.
func BenchmarkAblationFilterSize(b *testing.B) {
	for _, c := range []struct {
		name string
		bits int
	}{{"64-bit", 64}, {"256-bit-paper", 256}, {"1024-bit", 1024}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spec, err := experiments.ParseConfig("DD")
				if err != nil {
					b.Fatal(err)
				}
				spec.Workload = "gups"
				spec.WL = experiments.Medium.WLConfig(workload.BigMemory, 1)
				spec.MMU = mmu.Config{EscapeFilterBits: c.bits}
				spec.BadPages = 16
				spec.BadPageSeed = 7
				res, err := experiments.Run(spec)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Overhead*100, "overhead%")
				b.ReportMetric(float64(res.Stats.EscapeTaken), "escapes")
			}
		})
	}
}
