// The benchmark harness: one benchmark per table and figure of the
// paper's evaluation. Each regenerates its experiment at Medium scale
// and logs the resulting table (run with -v to see them); cmd/paperbench
// produces the Full-scale numbers recorded in EXPERIMENTS.md.
//
//	go test -bench=. -benchmem
package vdirect

import (
	"testing"

	"vdirect/internal/experiments"
	"vdirect/internal/sched"
	"vdirect/internal/workload"
)

// benchScale keeps `go test -bench=.` tractable; paperbench -scale full
// is the reference run.
const benchScale = ScaleMedium

// BenchmarkTableI_Translate characterizes the per-translation cost of
// each mode's L1-miss path — the Table I / Table II state machines.
func BenchmarkTableI_Translate(b *testing.B) {
	cases := []struct {
		name string
		mode Mode
	}{
		{"Native_1D", Native},
		{"DirectSegment_0D", DirectSegment},
		{"BaseVirtualized_2D", BaseVirtualized},
		{"DualDirect_0D", DualDirect},
		{"VMMDirect_1D", VMMDirect},
		{"GuestDirect_1D", GuestDirect},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			s, err := NewSystem(Config{Mode: c.mode, GuestMemory: 256 << 20})
			if err != nil {
				b.Fatal(err)
			}
			var base uint64
			segmented := c.mode == DirectSegment || c.mode == GuestDirect || c.mode == DualDirect
			if segmented {
				base, err = s.CreatePrimaryRegion(64 << 20)
			} else {
				base = 0x40000000
				err = s.MapEager(base, 64<<20, Page4K)
			}
			if err != nil {
				b.Fatal(err)
			}
			// Touch every page once so software state is warm; the TLBs
			// still miss constantly (64MB ≫ reach), which is the point.
			for off := uint64(0); off < 64<<20; off += 4096 {
				if _, _, err := s.Access(base + off); err != nil {
					b.Fatal(err)
				}
			}
			s.ResetStats()
			b.ResetTimer()
			var addr uint64
			for i := 0; i < b.N; i++ {
				addr = (addr + 4096*63) % (64 << 20)
				if _, _, err := s.Access(base + addr); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := s.Stats()
			if st.Accesses > 0 {
				b.ReportMetric(float64(st.WalkMemRefs)/float64(st.Accesses), "refs/access")
				b.ReportMetric(float64(st.WalkCycles)/float64(st.Accesses), "cyc/access")
			}
		})
	}
}

// BenchmarkRunGridSerial and BenchmarkRunGridParallel measure the
// experiment scheduler's scaling on a figure-sized grid: identical
// cells, Parallelism 1 vs all cores. Their ratio is the core-count
// speedup EXPERIMENTS.md records (≈1× on single-core hosts).
func BenchmarkRunGridSerial(b *testing.B)   { benchRunGrid(b, 1) }
func BenchmarkRunGridParallel(b *testing.B) { benchRunGrid(b, 0) }

func benchRunGrid(b *testing.B, parallelism int) {
	wls := workload.BigMemoryNames()
	configs := []string{"4K", "4K+4K", "DD", "4K+VD", "4K+GD"}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunGridOpts(
			sched.Config{Parallelism: parallelism}, wls, configs, benchScale, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Figure1Opts(sched.Config{}, benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", fig.Grid().Render())
		}
	}
}

func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Figure11Opts(sched.Config{}, benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", fig.Grid().Render())
		}
	}
}

func BenchmarkFigure12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Figure12Opts(sched.Config{}, benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", fig.Grid().Render())
		}
	}
}

func BenchmarkFigure13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.Figure13Opts(sched.Config{}, benchScale, 5, []int{1, 4, 16})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", experiments.Figure13Table(points).Render())
		}
	}
}

func BenchmarkSectionVIII(b *testing.B) {
	configs := []string{"4K", "4K+4K", "2M", "2M+2M", "1G", "1G+1G"}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunGridOpts(sched.Config{}, workload.BigMemoryNames(), configs, benchScale, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", experiments.SectionVIII(rows).Render())
		}
	}
}

func BenchmarkBreakdownIXA(b *testing.B) {
	wls := append([]string{"tlbstress"}, workload.BigMemoryNames()...)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.BreakdownOpts(sched.Config{}, benchScale, wls)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", experiments.BreakdownTable(rows).Render())
		}
	}
}

func BenchmarkTableIVModels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TableIVValidationOpts(sched.Config{}, benchScale, workload.BigMemoryNames())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", experiments.ModelTable(rows).Render())
		}
	}
}

func BenchmarkShadowPagingIXD(b *testing.B) {
	wls := []string{"memcached", "omnetpp", "canneal", "graph500", "streamcluster"}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ShadowStudyOpts(sched.Config{}, benchScale, wls)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", experiments.ShadowTable(rows).Render())
		}
	}
}

func BenchmarkPageSharingIXE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.SharingStudyOpts(sched.Config{}, 128, 0.03, 0.01)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", experiments.SharingTable(rows).Render())
		}
	}
}

func BenchmarkEnergyIXB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunGridOpts(sched.Config{}, []string{"graph500", "gups"},
			[]string{"4K+4K", "DD", "4K+VD", "4K+GD"}, benchScale, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", experiments.EnergyTable(experiments.Energy(rows)).Render())
		}
	}
}

func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := TableII()
		if i == 0 {
			b.Logf("\n%s", out)
		}
	}
}

func BenchmarkTableIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := TableIII()
		if i == 0 {
			b.Logf("\n%s", out)
		}
	}
}
