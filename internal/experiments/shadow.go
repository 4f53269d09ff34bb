// The shadow-paging study (§IX.D): shadow paging eliminates the 2D walk
// by letting hardware walk a VMM-maintained gVA→hPA shadow table, but
// every guest page-table change costs a VM exit. The study compares
// each workload's shadow-paging slowdown (vs native) against VMM
// Direct's, reproducing the paper's split between allocation-heavy
// workloads (memcached, GemsFDTD, omnetpp, canneal) and static ones.

package experiments

import (
	"fmt"

	"vdirect/internal/addr"
	"vdirect/internal/guestos"
	"vdirect/internal/mmu"
	"vdirect/internal/replay"
	"vdirect/internal/sched"
	"vdirect/internal/stats"
	"vdirect/internal/trace"
	"vdirect/internal/vmm"
	"vdirect/internal/workload"
)

// ShadowResult compares shadow paging and VMM Direct for one workload.
type ShadowResult struct {
	Workload string
	// ShadowSlowdown is (T_shadow − T_native) / T_native.
	ShadowSlowdown float64
	// VMMDirectSlowdown is (T_vd − T_native) / T_native.
	VMMDirectSlowdown float64
	// Exits is the number of VM exits shadow paging took (post-warmup).
	Exits uint64
}

// ShadowStudy runs the §IX.D comparison for the given workloads.
func ShadowStudy(scale Scale, workloads []string) ([]ShadowResult, error) {
	return ShadowStudyOpts(sched.Config{}, scale, workloads)
}

// ShadowStudyOpts is ShadowStudy under an explicit scheduler
// configuration. The native, VMM Direct and shadow runs of each
// workload are three independent cells.
func ShadowStudyOpts(cfg sched.Config, scale Scale, workloads []string) ([]ShadowResult, error) {
	// outcome carries whichever of the two run types a cell performed.
	type outcome struct {
		res    Result
		shadow shadowOutcome
	}
	type cell struct {
		wl    string
		label string // "4K", "4K+VD", or "" for the shadow run
	}
	var cells []cell
	for _, wl := range workloads {
		cells = append(cells, cell{wl, "4K"}, cell{wl, "4K+VD"}, cell{wl, ""})
	}
	if cfg.SpanName == nil {
		cfg.SpanName = func(i int) string {
			if cells[i].label == "" {
				return cells[i].wl + " shadow"
			}
			return cells[i].wl + " " + cells[i].label
		}
	}
	runs, err := sched.Run(cfg, len(cells), func(i int) (outcome, error) {
		c := cells[i]
		wlCfg := scale.WLConfig(workload.ClassOf(c.wl), 1)
		if c.label == "" {
			sh, err := runShadow(c.wl, wlCfg)
			return outcome{shadow: sh}, err
		}
		spec, err := ParseConfig(c.label)
		if err != nil {
			return outcome{}, err
		}
		spec.Workload = c.wl
		spec.WL = wlCfg
		res, err := Run(spec)
		return outcome{res: res}, err
	})
	if err != nil {
		return nil, err
	}
	out := make([]ShadowResult, 0, len(workloads))
	for i, wl := range workloads {
		nat, vd, sh := runs[3*i].res, runs[3*i+1].res, runs[3*i+2].shadow
		tn := nat.ExecutionCycles()
		out = append(out, ShadowResult{
			Workload:          wl,
			ShadowSlowdown:    (sh.total - tn) / tn,
			VMMDirectSlowdown: (vd.ExecutionCycles() - tn) / tn,
			Exits:             sh.exits,
		})
	}
	return out, nil
}

type shadowOutcome struct {
	total float64 // ideal + walk + exit cycles
	exits uint64
}

// runShadow replays a workload under shadow paging: a native-mode MMU
// walks the shadow table; shadow misses and guest PT updates exit to
// the VMM.
func runShadow(wl string, wlCfg workload.Config) (shadowOutcome, error) {
	w := workload.New(wl, wlCfg)
	prim := w.PrimaryRegion()
	guestSize := addr.AlignUp(prim.Size+160<<20, addr.PageSize4K)
	hostSize := addr.AlignUp(guestSize+guestSize/4+256<<20, addr.PageSize4K)

	host := vmm.NewHost(hostSize)
	vm, err := host.CreateVM(vmm.VMConfig{Name: wl, MemorySize: guestSize, NestedPageSize: addr.Page4K})
	if err != nil {
		return shadowOutcome{}, err
	}
	kernel := guestos.NewKernel(vm.GuestMem, vm)
	proc, err := kernel.CreateProcess(wl)
	if err != nil {
		return shadowOutcome{}, err
	}
	sh, err := vm.NewShadowContext()
	if err != nil {
		return shadowOutcome{}, err
	}

	// Hardware sees only the shadow table: a 1D native walk.
	m := mmu.New(mmu.Config{})
	m.SetGuestPageTable(sh.Shadow)

	// Guest mappings: the primary region is paged at 4K (shadow paging
	// is the software baseline; no segments).
	if err := proc.MMapAt(prim); err != nil {
		return shadowOutcome{}, err
	}
	if err := proc.MapRegion(prim, addr.Page4K); err != nil {
		return shadowOutcome{}, err
	}
	for _, r := range w.StaticRegions() {
		if r == prim {
			continue
		}
		if err := proc.MMapAt(r); err != nil {
			return shadowOutcome{}, err
		}
	}
	if err := proc.Prefault(addr.Range{Start: workload.StackBase, Size: 32 << 10}); err != nil {
		return shadowOutcome{}, err
	}

	// Pre-sync the shadow table for everything already mapped: those
	// one-time first-touch syncs are startup cost, amortized to nothing
	// over the paper's long executions. Post-warmup exits then measure
	// steady-state behaviour — guest page-table churn — which is the
	// §IX.D differentiator.
	var syncErr error
	proc.PT.VisitLeaves(func(va, pa uint64, s addr.PageSize) bool {
		if err := sh.SyncPage(proc.PT, va); err != nil {
			syncErr = err
			return false
		}
		return true
	})
	if syncErr != nil {
		return shadowOutcome{}, syncErr
	}

	total := w.AccessCount()
	warmupAt := uint64(float64(total) * 0.2)
	w.Reset()

	// The warmup hook snapshots the pre-warmup VM exits alongside the
	// stats reset: those (plus the pre-sync exits above) are startup
	// cost, excluded from the steady-state measurement.
	var exitsAtWarmup uint64
	eng := replay.New(w, replay.Hooks{
		AccessBlock: func(evs []trace.Event) (int, error) {
			done, attempt := 0, 0
			for {
				n, fault := m.TranslateBlock(evs[done:], nil)
				done += n
				if fault == nil {
					return done, nil
				}
				if n > 0 {
					attempt = 0 // a new event is faulting
				}
				attempt++
				// One VM exit handles the whole fault: the VMM fields
				// the guest fault, updates the guest PT if needed, and
				// syncs the shadow entry.
				va := uint64(evs[done].VA)
				if _, _, mapped := proc.PT.Translate(va); !mapped {
					if err := proc.HandleFault(va); err != nil {
						return done, err
					}
				}
				if err := sh.SyncPage(proc.PT, va); err != nil {
					return done, err
				}
				if attempt >= 4 {
					return done, fmt.Errorf("experiments: shadow access at %#x stuck", va)
				}
			}
		},
		Free: func(ev trace.Event) error {
			r := addr.Range{Start: uint64(ev.VA), Size: ev.Size}
			if err := proc.Unmap(r); err != nil {
				return err
			}
			for va := r.Start; va < r.End(); va += addr.PageSize4K {
				// Each guest PTE clear traps and invalidates shadow state.
				if err := sh.InvalidatePage(va, addr.Page4K); err != nil {
					return err
				}
				m.InvalidatePage(va, addr.Page4K)
			}
			return nil
		},
		Warmup: func() {
			m.ResetStats()
			exitsAtWarmup, _ = sh.Exits()
		},
	}, replay.Config{WarmupAccesses: warmupAt})
	if err := eng.Run(); err != nil {
		return shadowOutcome{}, err
	}
	measured := eng.Counts().Measured
	exits, exitCycles := sh.Exits()
	exits -= exitsAtWarmup
	exitCycles -= exitsAtWarmup * vmm.DefaultExitCycles
	ideal := float64(measured) * w.BaseCPI()
	return shadowOutcome{
		total: ideal + float64(m.Stats().WalkCycles) + float64(exitCycles),
		exits: exits,
	}, nil
}

// ShadowTable renders the §IX.D comparison.
func ShadowTable(rows []ShadowResult) *stats.Table {
	t := stats.NewTable("Section IX.D — shadow paging vs VMM Direct (slowdown vs native)",
		"workload", "shadow", "VMM Direct", "exits")
	for _, r := range rows {
		t.AddRow(r.Workload, stats.Percent(r.ShadowSlowdown),
			stats.Percent(r.VMMDirectSlowdown), fmt.Sprint(r.Exits))
	}
	return t
}
