package main

// The ladder replays one workload's own access stream through a single
// layer's public API at a time, so each layer's host cost per operation
// is measured in isolation. Rung cost times the cell's exact operation
// count, summed over the rungs, is set against the measured translate
// time; the residual is what the rungs do not explain (dispatch, the
// fused walk's nested dimension, stats bookkeeping).

import (
	"fmt"
	"io"
	"time"

	"vdirect/internal/addr"
	"vdirect/internal/mmu"
	"vdirect/internal/pagetable"
	"vdirect/internal/physmem"
	"vdirect/internal/ptecache"
	"vdirect/internal/replay"
	"vdirect/internal/tlb"
	"vdirect/internal/trace"
	"vdirect/internal/workload"
)

// rungs are host ns per operation of each layer (µs for physmem).
type rungs struct {
	Engine, L1, L2, Walk, PTE, Escape, AllocContigUS float64
}

// ladderReps is how many times each rung is timed; the median is kept.
const ladderReps = 3

// measureLadder times every rung on w's access stream. pt is the guest
// page table the cell ran on and m the MMU whose escape filters and
// guest segment its misses probed.
func measureLadder(w workload.Workload, pt *pagetable.Table, m *mmu.MMU, seed uint64) rungs {
	vas := accessVAs(w)
	var r [7][]float64
	for i := 0; i < ladderReps; i++ {
		r[0] = append(r[0], engineRung(w))
		ns, l1miss := l1Rung(vas)
		r[1] = append(r[1], ns)
		ns, l2miss := l2Rung(l1miss)
		r[2] = append(r[2], ns)
		ns, refs := walkRung(pt, l2miss)
		r[3] = append(r[3], ns)
		r[4] = append(r[4], pteRung(refs))
		r[5] = append(r[5], escapeRung(m, l1miss))
		r[6] = append(r[6], allocContigRung(seed))
	}
	return rungs{
		Engine: median(r[0]), L1: median(r[1]), L2: median(r[2]), Walk: median(r[3]),
		PTE: median(r[4]), Escape: median(r[5]), AllocContigUS: median(r[6]),
	}
}

// accessVAs collects the virtual address of every access in w's trace.
func accessVAs(w workload.Workload) []uint64 {
	vas := make([]uint64, 0, w.AccessCount())
	w.Reset()
	eng := replay.New(w, replay.Hooks{AccessBlock: func(evs []trace.Event) (int, error) {
		for _, ev := range evs {
			vas = append(vas, uint64(ev.VA))
		}
		return len(evs), nil
	}}, replay.Config{})
	if err := eng.Run(); err != nil {
		panic(err) // the hook never fails
	}
	return vas
}

// perOp is elapsed time in ns per operation (0 when there were none).
func perOp(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

// engineRung is the replay engine and generator with no-op hooks.
func engineRung(w workload.Workload) float64 {
	w.Reset()
	t0 := time.Now()
	eng := replay.New(w, replay.Hooks{AccessBlock: func(evs []trace.Event) (int, error) {
		return len(evs), nil
	}}, replay.Config{})
	if err := eng.Run(); err != nil {
		panic(err)
	}
	return perOp(time.Since(t0), int(eng.Counts().Events))
}

// l1Rung probes a fresh L1 the way the batched translate loop does:
// repeats of the previous page skip the probe, the rest go in runs of
// up to eight through Lookup4KRun, and a miss inserts a 4K entry. It
// returns ns per access and the missing addresses in order.
func l1Rung(vas []uint64) (float64, []uint64) {
	l1 := tlb.NewL1(tlb.SandyBridgeL1)
	misses := make([]uint64, 0, len(vas)/2)
	var vpns, ppns [8]uint64
	var idxs [8]int
	last := ^uint64(0)
	t0 := time.Now()
	for i := 0; i < len(vas); {
		np, j, prev := 0, i, last
		for ; j < len(vas) && np < len(vpns); j++ {
			vpn := vas[j] >> addr.PageShift4K
			if vpn == prev {
				continue
			}
			vpns[np], idxs[np] = vpn, j
			np++
			prev = vpn
		}
		if np == 0 {
			i = j
			continue
		}
		nh := l1.Lookup4KRun(vpns[:np], ppns[:np])
		if nh == np {
			last, i = vpns[np-1], j
			continue
		}
		k := idxs[nh]
		l1.Insert(vas[k], vas[k], addr.Page4K)
		misses = append(misses, vas[k])
		last, i = vpns[nh], k+1
	}
	return perOp(time.Since(t0), len(vas)), misses
}

// l2Rung probes a fresh L2 with the L1 misses, inserting on a miss.
func l2Rung(vas []uint64) (float64, []uint64) {
	l2 := tlb.NewL2(512, 4)
	misses := make([]uint64, 0, len(vas))
	t0 := time.Now()
	for _, va := range vas {
		if _, hit := l2.LookupGuest(va); !hit {
			l2.InsertGuest(va, va)
			misses = append(misses, va)
		}
	}
	return perOp(time.Since(t0), len(vas)), misses
}

// walkRung walks the guest table for each L2 miss and returns ns per
// walk and the physical addresses of every reference the walks made.
func walkRung(pt *pagetable.Table, vas []uint64) (float64, []uint64) {
	var refs []pagetable.Ref
	t0 := time.Now()
	for _, va := range vas {
		_, _, refs, _ = pt.Walk(va, refs[:0])
	}
	ns := perOp(time.Since(t0), len(vas))
	var addrs []uint64
	for _, va := range vas {
		_, _, refs, _ = pt.Walk(va, refs[:0])
		for _, r := range refs {
			addrs = append(addrs, r.Addr)
		}
	}
	return ns, addrs
}

// pteRung charges each walk reference to a fresh PTE-cost cache.
func pteRung(refs []uint64) float64 {
	c := ptecache.New(ptecache.Default)
	var sink uint64
	t0 := time.Now()
	for _, a := range refs {
		sink += c.Access(a)
	}
	_ = sink
	return perOp(time.Since(t0), len(refs))
}

// escapeRung probes the cell's escape filters with the L1 misses the way
// the 0D path does: the guest filter by virtual page where the guest
// segment covers the access, then the VMM filter by guest-physical page.
// It returns ns per probe.
func escapeRung(m *mmu.MMU, vas []uint64) float64 {
	gseg, fg, fv := m.GuestSegment(), m.GuestEscapeFilter(), m.VMMEscapeFilter()
	probes, hits := 0, 0
	t0 := time.Now()
	for _, va := range vas {
		gpa := va
		if gseg.Enabled() && gseg.Contains(va) {
			probes++
			if fg.MayContain(va >> addr.PageShift4K) {
				hits++
				continue
			}
			gpa = gseg.Translate(va)
		}
		probes++
		if fv.MayContain(gpa >> addr.PageShift4K) {
			hits++
		}
	}
	_ = hits
	return perOp(time.Since(t0), probes)
}

// allocContigRung fragments a 256 MB memory at random (seeded) and then
// carves 64 KB runs from it until it runs out or 256 are taken: the
// allocator search behind segment reservation and hotplug. µs per call.
func allocContigRung(seed uint64) float64 {
	mem := physmem.New(physmem.Config{Name: "ladder", Size: 256 << 20})
	mem.FragmentRandomly(0.25, trace.NewRand(seed).Uint64n)
	calls := 0
	t0 := time.Now()
	for calls < 256 {
		if _, err := mem.AllocContiguous(16, 1); err != nil {
			break
		}
		calls++
	}
	return perOp(time.Since(t0), calls) / 1e3
}

// ladderRow is one rung of the printed table.
type ladderRow struct {
	Name  string
	NS    float64
	Count uint64
}

// ladderRows pairs each translate-path rung with its exact count.
func ladderRows(r rungs, full mmu.Stats) []ladderRow {
	return []ladderRow{
		{"tlb.l1", r.L1, full.Accesses},
		{"tlb.l2", r.L2, full.L2Hits + full.L2Misses},
		{"pagetable.walk", r.Walk, full.Walks + full.NestedWalks},
		{"ptecache", r.PTE, full.WalkMemRefs},
		{"escape", r.Escape, full.EscapeProbes},
	}
}

// printLadder prints rung ns × exact count next to the measured
// mmu.translate time, with the residual.
func printLadder(out io.Writer, name string, r rungs, full mmu.Stats, translate time.Duration) {
	fmt.Fprintf(out, "\nladder %s: rung cost × exact count vs measured mmu.translate (whole run, warmup included)\n", name)
	fmt.Fprintf(out, "  %-18s %10s %12s %10s %8s\n", "rung", "ns/op", "count", "ms", "share")
	refMS := float64(translate.Nanoseconds()) / 1e6
	var sum float64
	for _, row := range ladderRows(r, full) {
		ms := row.NS * float64(row.Count) / 1e6
		sum += ms
		fmt.Fprintf(out, "  %-18s %10.2f %12d %10.3f %7.1f%%\n", row.Name, row.NS, row.Count, ms, 100*ms/refMS)
	}
	fmt.Fprintf(out, "  %-18s %10s %12s %10.3f %7.1f%%\n", "sum of rungs", "", "", sum, 100*sum/refMS)
	fmt.Fprintf(out, "  %-18s %10s %12s %10.3f %7.1f%%\n", "mmu.translate", "", "", refMS, 100.0)
	fmt.Fprintf(out, "  %-18s %10s %12s %10.3f %7.1f%%\n", "residual", "", "", refMS-sum, 100*(refMS-sum)/refMS)
}
