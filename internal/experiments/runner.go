// The simulation runner: builds the full stack for one Spec (host, VM,
// guest kernel, process, MMU), replays the workload trace through it,
// and reports the paper's metrics.

package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"

	"vdirect/internal/addr"
	"vdirect/internal/guestos"
	"vdirect/internal/mmu"
	"vdirect/internal/perfmodel"
	"vdirect/internal/physmem"
	"vdirect/internal/replay"
	"vdirect/internal/telemetry"
	"vdirect/internal/telemetry/walkprof"
	"vdirect/internal/trace"
	"vdirect/internal/vmm"
	"vdirect/internal/workload"
)

// Result reports one simulation cell.
type Result struct {
	Spec Spec
	// Accesses counted after warmup.
	Accesses uint64
	// IdealCycles is Accesses × BaseCPI — the translation-free time.
	IdealCycles float64
	// WalkCycles is the measured TLB-miss handling time.
	WalkCycles uint64
	// Overhead is WalkCycles / IdealCycles (§VIII metric).
	Overhead float64
	// Stats are the raw MMU counters after warmup.
	Stats mmu.Stats
}

// ExecutionCycles returns the modeled total execution time.
func (r Result) ExecutionCycles() float64 {
	return r.IdealCycles + float64(r.WalkCycles)
}

// env is the assembled simulation stack for one run.
type env struct {
	w      workload.Workload
	m      *mmu.MMU
	kernel *guestos.Kernel
	proc   *guestos.Process
	host   *vmm.Host
	vm     *vmm.VM
}

// Run simulates one Spec end to end.
func Run(spec Spec) (Result, error) {
	return RunWorkload(spec, workload.New(spec.Workload, spec.WL))
}

// sharedTraces builds each trace a driver's cells replay once, when the
// first cell that needs it starts, and gives every cell its own cursor.
// A driver adds every cell before the first one runs; the last cell to
// finish over a trace drops it, so nothing outlives the driver call.
type sharedTraces map[traceKey]*sharedTrace

// traceKey names one trace: a workload under one sizing.
type traceKey struct {
	name string
	cfg  workload.Config
}

type sharedTrace struct {
	once sync.Once
	w    workload.Workload
	left atomic.Int64 // cells that have yet to finish
}

// add registers n more cells that replay name under cfg.
func (t sharedTraces) add(name string, cfg workload.Config, n int) {
	k := traceKey{name, cfg}
	if t[k] == nil {
		t[k] = &sharedTrace{}
	}
	t[k].left.Add(int64(n))
}

// run is Run over a cursor of the spec's shared trace.
func (t sharedTraces) run(spec Spec) (Result, error) {
	e := t[traceKey{spec.Workload, spec.WL}]
	e.once.Do(func() { e.w = workload.New(spec.Workload, spec.WL) })
	res, err := RunWorkload(spec, e.w.Cursor())
	if e.left.Add(-1) == 0 {
		e.w = nil
	}
	return res, err
}

// RunWorkload is Run over a caller-supplied workload, replayed as given
// (never through a Cursor). The golden equivalence tests use it to
// replay one spec through the block path and the per-event Next shim;
// it also lets callers drive custom traces through the harness.
func RunWorkload(spec Spec, w workload.Workload) (Result, error) {
	if spec.WarmupFrac == 0 {
		spec.WarmupFrac = 0.2
	}
	e, err := build(spec, w)
	if err != nil {
		return Result{}, fmt.Errorf("experiments: building %s/%s: %w", spec.Workload, spec.Label, err)
	}
	if got := e.m.Mode(); got != spec.Mode {
		return Result{}, fmt.Errorf("experiments: built mode %v, wanted %v", got, spec.Mode)
	}
	return replayRun(spec, e)
}

// build assembles the stack for a spec. What the stack must provide —
// virtualization, segment registers, contiguous backing, flattened
// nested tables — comes from the scheme's own Requirements, so a new
// registered scheme runs here without touching the builder.
func build(spec Spec, w workload.Workload) (*env, error) {
	scheme, err := mmu.SchemeByName(string(spec.Mode))
	if err != nil {
		return nil, err
	}
	req := scheme.Requirements()
	prim := w.PrimaryRegion()

	// Guest physical sizing: the primary region's backing (rounded up
	// to whole guest pages, plus one spare so an aligned run exists
	// above the kernel's low allocations) plus head room for page
	// tables, stack, churn chunks, and bad-page replacement frames.
	backing := addr.AlignUp(prim.Size, spec.GuestPage.Bytes()) + spec.GuestPage.Bytes()
	guestSize := addr.AlignUp(backing+160<<20, spec.NestedPage.Bytes())

	e := &env{w: w, m: mmu.New(spec.MMU)}

	if !req.Virtualized {
		mem := physmem.New(physmem.Config{Name: "machine", Size: guestSize})
		e.kernel = guestos.NewKernel(mem, nil)
	} else {
		hostSize := addr.AlignUp(guestSize+guestSize/4+spec.NestedPage.Bytes()+256<<20, addr.PageSize4K)
		e.host = vmm.NewHost(hostSize)
		vm, err := e.host.CreateVM(vmm.VMConfig{
			Name:              spec.Workload,
			MemorySize:        guestSize,
			NestedPageSize:    spec.NestedPage,
			ContiguousBacking: req.ContiguousBacking,
		})
		if err != nil {
			return nil, err
		}
		e.vm = vm
		e.kernel = guestos.NewKernel(vm.GuestMem, vm)
		e.m.SetNestedPageTable(vm.NPT)
		e.m.SetFlatNested(req.FlattenedNested)
	}

	proc, err := e.kernel.CreateProcess(w.Name())
	if err != nil {
		return nil, err
	}
	e.proc = proc
	e.m.SetGuestPageTable(proc.PT)

	// VMM dimension.
	if req.VMMSegment {
		seg, err := e.vm.TryEnableVMMSegment()
		if err != nil {
			return nil, err
		}
		e.m.SetVMMSegment(seg)
	}

	// Guest dimension: segment or paging over the primary region.
	if req.GuestSegment {
		if err := proc.CreatePrimaryRegionAt(prim); err != nil {
			return nil, err
		}
		e.m.SetGuestSegment(proc.Seg)
	} else {
		if err := proc.MMapAt(prim); err != nil {
			return nil, err
		}
		if err := proc.MapRegion(prim, spec.GuestPage); err != nil {
			return nil, err
		}
	}

	// Stack and churn arenas are ordinary paged regions.
	for _, r := range w.StaticRegions() {
		if r == prim {
			continue
		}
		if err := proc.MMapAt(r); err != nil {
			return nil, err
		}
	}
	// Pre-touch the stack (hot from process start).
	if err := proc.Prefault(addr.Range{Start: workload.StackBase, Size: 32 << 10}); err != nil {
		return nil, err
	}

	if spec.BadPages > 0 {
		if err := injectBadPages(spec, e); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// injectBadPages models hard-faulted host pages inside the VMM segment
// (Figure 13): each is added to the escape filter and its gPA remapped
// through nested paging to a healthy frame.
func injectBadPages(spec Spec, e *env) error {
	seg := e.m.VMMSegment()
	if !seg.Enabled() {
		return fmt.Errorf("experiments: bad-page study needs a VMM segment (mode %v)", spec.Mode)
	}
	// Bad pages land inside the primary region's backing — the memory
	// the workload actually touches.
	target := e.proc.Seg.TargetRange() // gPA range of the guest segment
	if target.Empty() {
		target = addr.Range{Start: 0, Size: e.vm.GuestMem.Size()}
	}
	rng := trace.NewRand(spec.BadPageSeed ^ 0xBAD)
	picked := make(map[uint64]bool, spec.BadPages)
	for len(picked) < spec.BadPages {
		gpa := addr.PageBase(target.Start+rng.Uint64n(target.Size), addr.Page4K)
		if picked[gpa] {
			continue
		}
		picked[gpa] = true
		e.m.VMMEscapeFilter().Insert(gpa >> addr.PageShift4K)
		f, err := e.host.Mem.AllocFrame()
		if err != nil {
			return fmt.Errorf("experiments: healthy replacement frame: %w", err)
		}
		if err := e.vm.NPT.Remap(gpa, physmem.FrameToAddr(f)); err != nil {
			return err
		}
	}
	return nil
}

// replayRun streams the trace through the MMU via the replay engine,
// servicing faults like the OS would, with statistics reset at the
// warmup boundary. The warmup point comes from the workload's analytic
// access count, so the trace is traversed exactly once. Alloc events
// need no hook: pages fault in on first touch.
func replayRun(spec Spec, e *env) (Result, error) {
	total := e.w.AccessCount()
	warmupAt := uint64(float64(total) * spec.WarmupFrac)
	e.w.Reset()

	// Telemetry (all inert when no run is active): a per-cell walk probe
	// collects every measured walk's refs/cycles into goroutine-local
	// shards, and the warmup/measure phases each get a trace span. The
	// probe is reset at the warmup boundary alongside the MMU counters so
	// the histograms describe exactly the measured interval.
	var probe *telemetry.WalkProbe
	if telemetry.Active() {
		probe = &telemetry.WalkProbe{}
		e.m.SetWalkProbe(probe)
	}
	cellName := spec.Workload + "/" + spec.Label
	// Walk sampling (walkprof) rides the same seam: a per-cell sampler
	// owned by this goroutine, seeded from the workload spec alone so the
	// sample stream is identical at any -j / -shards setting, committed
	// to the profile once at completion.
	var sampler *walkprof.Sampler
	prof := walkprof.Enabled()
	if prof != nil {
		sampler = prof.Sampler(cellName, 0, spec.WL.Seed)
		e.m.SetWalkSampler(sampler)
	}
	warmSpan := telemetry.StartSpan("replay", cellName+" warmup")
	var measSpan telemetry.Span

	eng := replay.New(e.w, replay.Hooks{
		AccessBlock: func(evs []trace.Event) (int, error) {
			return translateBlock(e, evs)
		},
		Free: func(ev trace.Event) error {
			r := addr.Range{Start: uint64(ev.VA), Size: ev.Size}
			if err := e.proc.Unmap(r); err != nil {
				return fmt.Errorf("experiments: free at %#x: %w", ev.VA, err)
			}
			for va := r.Start; va < r.End(); va += addr.PageSize4K {
				e.m.InvalidatePage(va, addr.Page4K)
			}
			return nil
		},
		Warmup: func() {
			e.m.ResetStats()
			if probe != nil {
				probe.Reset()
			}
			if sampler != nil {
				sampler.Reset()
			}
			warmSpan.End()
			measSpan = telemetry.StartSpan("replay", cellName+" measure")
		},
	}, replay.Config{WarmupAccesses: warmupAt})
	if err := eng.Run(); err != nil {
		return Result{}, err
	}
	measSpan.End()

	measured := eng.Counts().Measured
	st := e.m.Stats()
	ideal := float64(measured) * e.w.BaseCPI()
	res := Result{
		Spec:        spec,
		Accesses:    measured,
		IdealCycles: ideal,
		WalkCycles:  st.WalkCycles,
		Overhead:    perfmodel.Overhead(float64(st.WalkCycles), ideal),
		Stats:       st,
	}
	if probe != nil {
		// One merge (a handful of atomic adds) per completed cell — the
		// only point where this cell's telemetry touches shared state.
		reg := telemetry.Default()
		mode := spec.Mode.String()
		reg.Histogram("walk.refs." + mode).Merge(&probe.Refs)
		reg.Histogram("walk.cycles." + mode).Merge(&probe.Cycles)
		reg.Counter("cells").Inc()
		reg.Counter("accesses.measured").Add(measured)
		reg.Counter("tlb.l2.evictions").Add(e.m.L2Evictions())
	}
	if sampler != nil {
		prof.Commit(sampler)
	}
	return res, nil
}

// translateBlock is the cell's access hook: the block through the
// cell's MMU under the guest's demand-paging protocol.
func translateBlock(e *env, evs []trace.Event) (int, error) {
	n, err := e.proc.TranslateBlock(e.m, evs, nil)
	if err != nil {
		err = fmt.Errorf("experiments: %w", err)
	}
	return n, err
}
