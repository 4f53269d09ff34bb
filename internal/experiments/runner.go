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

// Machine is one assembled simulation stack: the translation hardware,
// the guest kernel with one process installed as the guest page table,
// and, for a virtualized scheme, the host and the VM the guest runs in
// (nil otherwise).
type Machine struct {
	MMU    *mmu.MMU
	Kernel *guestos.Kernel
	Proc   *guestos.Process
	Host   *vmm.Host
	VM     *vmm.VM
	// Req is what the scheme asked the stack for.
	Req mmu.Requirements
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

// replay runs one cell, f, over a cursor of name's shared trace under
// cfg.
func (t sharedTraces) replay(name string, cfg workload.Config, f func(workload.Workload)) {
	e := t[traceKey{name, cfg}]
	e.once.Do(func() { e.w = workload.New(name, cfg) })
	f(e.w.Cursor())
	if e.left.Add(-1) == 0 {
		e.w = nil
	}
}

// run is Run over a cursor of the spec's shared trace.
func (t sharedTraces) run(spec Spec) (res Result, err error) {
	t.replay(spec.Workload, spec.WL, func(w workload.Workload) { res, err = RunWorkload(spec, w) })
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
	mc, err := build(spec, w)
	if err != nil {
		return Result{}, fmt.Errorf("experiments: building %s/%s: %w", spec.Workload, spec.Label, err)
	}
	if got := mc.MMU.Mode(); got != spec.Mode {
		return Result{}, fmt.Errorf("experiments: built mode %v, wanted %v", got, spec.Mode)
	}
	return replayRun(spec, w, mc)
}

// NewMachine assembles the stack a scheme's Requirements ask for: a
// native machine of guestSize bytes, or a host of hostSize bytes
// running one VM of guestSize bytes backed at nested pages —
// contiguously, with the VMM segment programmed (§VI.A), when the
// scheme uses one. hw configures the MMU; name labels the VM and the
// process. The process's regions and guest segment register are the
// caller's to set up (guestos.(*Process).LayOut), so a new registered
// scheme assembles here without touching this code.
func NewMachine(mode mmu.Mode, name string, guestSize, hostSize uint64, nested addr.PageSize, hw mmu.Config) (*Machine, error) {
	scheme, err := mmu.SchemeByName(string(mode))
	if err != nil {
		return nil, err
	}
	mc := &Machine{MMU: mmu.New(hw), Req: scheme.Requirements()}
	if !mc.Req.Virtualized {
		mem := physmem.New(physmem.Config{Name: "machine", Size: guestSize})
		mc.Kernel = guestos.NewKernel(mem, nil)
	} else {
		mc.Host = vmm.NewHost(hostSize)
		mc.VM, err = mc.Host.CreateVM(vmm.VMConfig{
			Name:              name,
			MemorySize:        guestSize,
			NestedPageSize:    nested,
			ContiguousBacking: mc.Req.ContiguousBacking,
		})
		if err != nil {
			return nil, err
		}
		mc.Kernel = guestos.NewKernel(mc.VM.GuestMem, mc.VM)
		mc.MMU.SetNestedPageTable(mc.VM.NPT)
		mc.MMU.SetFlatNested(mc.Req.FlattenedNested)
	}
	if mc.Proc, err = mc.Kernel.CreateProcess(name); err != nil {
		return nil, err
	}
	mc.MMU.SetGuestPageTable(mc.Proc.PT)
	if mc.Req.VMMSegment {
		seg, err := mc.VM.TryEnableVMMSegment()
		if err != nil {
			return nil, err
		}
		mc.MMU.SetVMMSegment(seg)
	}
	return mc, nil
}

// build assembles and lays out the stack for a spec.
func build(spec Spec, w workload.Workload) (*Machine, error) {
	// Guest physical sizing: the primary region's backing (rounded up
	// to whole guest pages, plus one spare so an aligned run exists
	// above the kernel's low allocations) plus head room for page
	// tables, stack, churn chunks, and bad-page replacement frames.
	backing := addr.AlignUp(w.PrimaryRegion().Size, spec.GuestPage.Bytes()) + spec.GuestPage.Bytes()
	guestSize := addr.AlignUp(backing+160<<20, spec.NestedPage.Bytes())
	hostSize := addr.AlignUp(guestSize+guestSize/4+spec.NestedPage.Bytes()+256<<20, addr.PageSize4K)
	mc, err := NewMachine(spec.Mode, spec.Workload, guestSize, hostSize, spec.NestedPage, spec.MMU)
	if err != nil {
		return nil, err
	}
	if err := mc.Proc.LayOut(w, mc.Req.GuestSegment, spec.GuestPage); err != nil {
		return nil, err
	}
	if mc.Req.GuestSegment {
		mc.MMU.SetGuestSegment(mc.Proc.Seg)
	}
	if spec.BadPages > 0 {
		if err := injectBadPages(spec, mc); err != nil {
			return nil, err
		}
	}
	return mc, nil
}

// injectBadPages models hard-faulted host pages inside the VMM segment
// (Figure 13): each is added to the escape filter and its gPA remapped
// through nested paging to a healthy frame.
func injectBadPages(spec Spec, mc *Machine) error {
	seg := mc.MMU.VMMSegment()
	if !seg.Enabled() {
		return fmt.Errorf("experiments: bad-page study needs a VMM segment (mode %v)", spec.Mode)
	}
	// Bad pages land inside the primary region's backing — the memory
	// the workload actually touches.
	target := mc.Proc.Seg.TargetRange() // gPA range of the guest segment
	if target.Empty() {
		target = addr.Range{Start: 0, Size: mc.VM.GuestMem.Size()}
	}
	rng := trace.NewRand(spec.BadPageSeed ^ 0xBAD)
	picked := make(map[uint64]bool, spec.BadPages)
	for len(picked) < spec.BadPages {
		gpa := addr.PageBase(target.Start+rng.Uint64n(target.Size), addr.Page4K)
		if picked[gpa] {
			continue
		}
		picked[gpa] = true
		mc.MMU.VMMEscapeFilter().Insert(gpa >> addr.PageShift4K)
		f, err := mc.Host.Mem.AllocFrame()
		if err != nil {
			return fmt.Errorf("experiments: healthy replacement frame: %w", err)
		}
		if err := mc.VM.NPT.Remap(gpa, physmem.FrameToAddr(f)); err != nil {
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
func replayRun(spec Spec, w workload.Workload, mc *Machine) (Result, error) {
	total := w.AccessCount()
	warmupAt := uint64(float64(total) * spec.WarmupFrac)
	w.Reset()

	// Telemetry (all inert when no run is active): a per-cell walk probe
	// collects every measured walk's refs/cycles into goroutine-local
	// shards, and the warmup/measure phases each get a trace span. The
	// probe is reset at the warmup boundary alongside the MMU counters so
	// the histograms describe exactly the measured interval.
	var probe *telemetry.WalkProbe
	if telemetry.Active() {
		probe = &telemetry.WalkProbe{}
		mc.MMU.SetWalkProbe(probe)
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
		mc.MMU.SetWalkSampler(sampler)
	}
	warmSpan := telemetry.StartSpan("replay", cellName+" warmup")
	var measSpan telemetry.Span

	eng := replay.New(w, replay.Hooks{
		AccessBlock: func(evs []trace.Event) (int, error) {
			return translateBlock(mc, evs)
		},
		Free: func(ev trace.Event) error {
			if err := mc.Proc.Free(mc.MMU, addr.Range{Start: uint64(ev.VA), Size: ev.Size}, nil); err != nil {
				return fmt.Errorf("experiments: free at %#x: %w", ev.VA, err)
			}
			return nil
		},
		Warmup: func() {
			mc.MMU.ResetStats()
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
	st := mc.MMU.Stats()
	ideal := float64(measured) * w.BaseCPI()
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
		reg.Counter("tlb.l2.evictions").Add(mc.MMU.L2Evictions())
	}
	if sampler != nil {
		prof.Commit(sampler)
	}
	return res, nil
}

// translateBlock is the cell's access hook: the block through the
// cell's MMU under the guest's demand-paging protocol.
func translateBlock(mc *Machine, evs []trace.Event) (int, error) {
	n, err := mc.Proc.TranslateBlock(mc.MMU, evs, nil)
	if err != nil {
		err = fmt.Errorf("experiments: %w", err)
	}
	return n, err
}
