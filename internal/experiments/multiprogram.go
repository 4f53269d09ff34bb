// Multiprogramming study (extension): the paper's proposal requires
// guest segment registers to be switched with the process (§III). This
// study runs two big-memory processes round-robin in one VM and
// measures what context switching costs under the 2014-era flush-on-
// switch TLBs versus ASID/PCID-tagged ones — in both cases with each
// process's direct segment following it on and off the core.

package experiments

import (
	"fmt"

	"vdirect/internal/addr"
	"vdirect/internal/guestos"
	"vdirect/internal/mmu"
	"vdirect/internal/replay"
	"vdirect/internal/stats"
	"vdirect/internal/trace"
	"vdirect/internal/vmm"
	"vdirect/internal/workload"
)

// MultiprogramResult compares switching policies for one workload.
type MultiprogramResult struct {
	Workload string
	Quantum  int
	// FlushOverhead and ASIDOverhead are translation overheads under
	// flush-on-switch and tagged context switches.
	FlushOverhead float64
	ASIDOverhead  float64
	Switches      uint64
}

// MultiprogramStudy time-slices two instances of the workload (distinct
// seeds, Dual Direct segments each) with the given quantum in accesses.
func MultiprogramStudy(scale Scale, workloads []string, quantum int) ([]MultiprogramResult, error) {
	var out []MultiprogramResult
	for _, wl := range workloads {
		res := MultiprogramResult{Workload: wl, Quantum: quantum}
		for _, tagged := range []bool{false, true} {
			overhead, switches, err := runMultiprogram(wl, scale, quantum, tagged)
			if err != nil {
				return nil, err
			}
			if tagged {
				res.ASIDOverhead = overhead
			} else {
				res.FlushOverhead = overhead
			}
			res.Switches = switches
		}
		out = append(out, res)
	}
	return out, nil
}

func runMultiprogram(wl string, scale Scale, quantum int, tagged bool) (float64, uint64, error) {
	class := workload.New(wl, workload.Config{MemoryMB: 1, Ops: 1}).Class()
	cfgA := scale.WLConfig(class, 1)
	cfgB := scale.WLConfig(class, 2)
	wA := workload.New(wl, cfgA)
	wB := workload.New(wl, cfgB)

	prim := wA.PrimaryRegion()
	// Two processes, each with its own segment-backed primary region.
	guestSize := addr.AlignUp(2*prim.Size+320<<20, addr.PageSize4K)
	hostSize := addr.AlignUp(guestSize+guestSize/4+256<<20, addr.PageSize4K)
	host := vmm.NewHost(hostSize)
	vm, err := host.CreateVM(vmm.VMConfig{
		Name: wl, MemorySize: guestSize,
		NestedPageSize: addr.Page4K, ContiguousBacking: true,
	})
	if err != nil {
		return 0, 0, err
	}
	kernel := guestos.NewKernel(vm.GuestMem, vm)
	hw := mmu.New(mmu.Config{})
	hw.SetNestedPageTable(vm.NPT)
	seg, err := vm.TryEnableVMMSegment()
	if err != nil {
		return 0, 0, err
	}
	hw.SetVMMSegment(seg)

	build := func(w workload.Workload) (*guestos.Process, error) {
		p, err := kernel.CreateProcess(w.Name())
		if err != nil {
			return nil, err
		}
		if err := p.CreatePrimaryRegionAt(w.PrimaryRegion()); err != nil {
			return nil, err
		}
		for _, r := range w.StaticRegions() {
			if r == w.PrimaryRegion() {
				continue
			}
			if err := p.MMapAt(r); err != nil {
				return nil, err
			}
		}
		return p, nil
	}
	pA, err := build(wA)
	if err != nil {
		return 0, 0, err
	}
	pB, err := build(wB)
	if err != nil {
		return 0, 0, err
	}
	sched := guestos.NewScheduler(kernel, []*guestos.Process{pA, pB})
	sched.UseASID = tagged

	// Interleave the two traces, switching every quantum accesses. Each
	// process is one replay engine stepped a quantum at a time; the
	// Alloc/Free hooks stay nil — churn events pass through untranslated,
	// exactly as the study always treated them (its TLBs are flushed or
	// retagged wholesale at every switch).
	var accesses uint64
	var cycles uint64
	cpi := wA.BaseCPI()
	mkEngine := func(w workload.Workload, p *guestos.Process) *replay.Engine {
		// Per-engine result buffer: the study needs per-access walk
		// cycles, which the batch path returns without a closure call.
		out := make([]mmu.Result, replay.DefaultBlockSize)
		return replay.New(w, replay.Hooks{
			AccessBlock: func(evs []trace.Event) (int, error) {
				if len(evs) > len(out) {
					out = make([]mmu.Result, len(evs))
				}
				// Only completed events' results count: a faulted
				// walk's cycles are not part of the study.
				n, err := p.TranslateBlock(hw, evs, out)
				for _, r := range out[:n] {
					cycles += r.Cycles
				}
				if err != nil {
					err = fmt.Errorf("experiments: multiprogram: %w", err)
				}
				return n, err
			},
		}, replay.Config{})
	}
	engines := []*replay.Engine{mkEngine(wA, pA), mkEngine(wB, pB)}
	done := make([]bool, len(engines))
	for !done[0] || !done[1] {
		for i, eng := range engines {
			if done[i] {
				continue
			}
			if err := sched.SwitchTo(i, hw); err != nil {
				return 0, 0, err
			}
			n, more, err := eng.Step(quantum)
			if err != nil {
				return 0, 0, err
			}
			accesses += uint64(n)
			if !more {
				done[i] = true
			}
		}
	}
	ideal := float64(accesses) * cpi
	return float64(cycles) / ideal, sched.Switches(), nil
}

// MultiprogramTable renders the study.
func MultiprogramTable(rows []MultiprogramResult) *stats.Table {
	t := stats.NewTable("Multiprogramming — context-switch cost, flush vs ASID (Dual Direct)",
		"workload", "quantum", "switches", "flush overhead", "ASID overhead")
	for _, r := range rows {
		t.AddRow(r.Workload, fmt.Sprint(r.Quantum), fmt.Sprint(r.Switches),
			stats.Percent(r.FlushOverhead), stats.Percent(r.ASIDOverhead))
	}
	return t
}
