package main

// The traced run needs spans around the calls one cell makes into each
// layer, but experiments assembles and replays a cell behind private
// functions. This file mirrors experiments' build and replayRun from the
// same public calls, with a span around each; its Result must equal
// RunWorkload's bit for bit, which every traced operation checks.

import (
	"errors"
	"fmt"
	"reflect"
	"time"

	"vdirect/internal/addr"
	"vdirect/internal/experiments"
	"vdirect/internal/guestos"
	"vdirect/internal/mmu"
	"vdirect/internal/perfmodel"
	"vdirect/internal/physmem"
	"vdirect/internal/replay"
	"vdirect/internal/trace"
	"vdirect/internal/vmm"
	"vdirect/internal/workload"
)

// stack is one cell's simulation stack.
type stack struct {
	m      *mmu.MMU
	kernel *guestos.Kernel
	proc   *guestos.Process
	host   *vmm.Host
	vm     *vmm.VM
}

// buildStack mirrors experiments.build.
func buildStack(tr *tracer, spec experiments.Spec, w workload.Workload) (*stack, error) {
	defer tr.end(tr.begin("experiments.build"))
	if spec.BadPages > 0 {
		return nil, errors.New("bench: the mirror stack injects no bad pages")
	}
	scheme, err := mmu.SchemeByName(string(spec.Mode))
	if err != nil {
		return nil, err
	}
	req := scheme.Requirements()
	prim := w.PrimaryRegion()
	backing := addr.AlignUp(prim.Size, spec.GuestPage.Bytes()) + spec.GuestPage.Bytes()
	guestSize := addr.AlignUp(backing+160<<20, spec.NestedPage.Bytes())

	s := &stack{m: mmu.New(spec.MMU)}
	if !req.Virtualized {
		id := tr.begin("physmem.New")
		mem := physmem.New(physmem.Config{Name: "machine", Size: guestSize})
		tr.end(id)
		s.kernel = guestos.NewKernel(mem, nil)
	} else {
		hostSize := addr.AlignUp(guestSize+guestSize/4+spec.NestedPage.Bytes()+256<<20, addr.PageSize4K)
		id := tr.begin("vmm.NewHost")
		s.host = vmm.NewHost(hostSize)
		tr.end(id)
		id = tr.begin("vmm.CreateVM")
		vm, err := s.host.CreateVM(vmm.VMConfig{
			Name:              spec.Workload,
			MemorySize:        guestSize,
			NestedPageSize:    spec.NestedPage,
			ContiguousBacking: req.ContiguousBacking,
		})
		tr.end(id)
		if err != nil {
			return nil, err
		}
		s.vm = vm
		s.kernel = guestos.NewKernel(vm.GuestMem, vm)
		s.m.SetNestedPageTable(vm.NPT)
		s.m.SetFlatNested(req.FlattenedNested)
	}

	id := tr.begin("guestos.CreateProcess")
	proc, err := s.kernel.CreateProcess(w.Name())
	tr.end(id)
	if err != nil {
		return nil, err
	}
	s.proc = proc
	s.m.SetGuestPageTable(proc.PT)

	if req.VMMSegment {
		seg, err := s.vm.TryEnableVMMSegment()
		if err != nil {
			return nil, err
		}
		s.m.SetVMMSegment(seg)
	}
	if req.GuestSegment {
		id := tr.begin("guestos.CreatePrimaryRegionAt")
		err := proc.CreatePrimaryRegionAt(prim)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		s.m.SetGuestSegment(proc.Seg)
	} else {
		if err := proc.MMapAt(prim); err != nil {
			return nil, err
		}
		id := tr.begin("guestos.MapRegion")
		err := proc.MapRegion(prim, spec.GuestPage)
		tr.end(id)
		if err != nil {
			return nil, err
		}
	}
	for _, r := range w.StaticRegions() {
		if r == prim {
			continue
		}
		if err := proc.MMapAt(r); err != nil {
			return nil, err
		}
	}
	id = tr.begin("guestos.Prefault")
	err = proc.Prefault(addr.Range{Start: workload.StackBase, Size: 32 << 10})
	tr.end(id)
	return s, err
}

// tracedCell is one cell run through the mirror.
type tracedCell struct {
	op
	Result experiments.Result
	// Full is the MMU counters over the whole run, warmup included, and
	// Accesses every access serviced: the span times cover both phases.
	Full        mmu.Stats
	Accesses    uint64
	L2Evictions uint64
	Trace       int
	stack       *stack
	w           *cellWorkload
}

// cellTraced runs one cell through the mirror with spans on tr.
func cellTraced(d *workloadDef, scale experiments.Scale, seed uint64, tr *tracer) (tc tracedCell, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	spec, err := d.cellSpec(scale, seed)
	if err != nil {
		return tc, err
	}
	if spec.WarmupFrac == 0 {
		spec.WarmupFrac = 0.2
	}
	tc.Trace = tr.newTrace()
	defer tr.end(tr.begin(d.Name))
	t0 := time.Now()
	id := tr.begin("workload.New")
	w, err := newCellWorkload(spec.Workload, spec.WL, tr)
	tr.end(id)
	if err != nil {
		return tc, err
	}
	gen := time.Since(t0)
	t1 := time.Now()
	s, err := buildStack(tr, spec, w)
	if err != nil {
		return tc, fmt.Errorf("bench: building %s: %w", d.Name, err)
	}
	if got := s.m.Mode(); got != spec.Mode {
		return tc, fmt.Errorf("bench: built mode %v, wanted %v", got, spec.Mode)
	}
	if err := replayTraced(tr, spec, s, w, &tc); err != nil {
		return tc, err
	}
	t2 := time.Now()
	if err := checkIdentities(d.Name, tc.Result.Stats); err != nil {
		return tc, err
	}
	tc.op = op{Setup: gen + w.reset.Sub(t1), Run: t2.Sub(w.reset), Events: w.AccessCount(), Digest: digest(tc.Result)}
	tc.stack, tc.w = s, w
	return tc, nil
}

// replayTraced mirrors experiments' replayRun for an unobserved cell (the
// traced run never has a telemetry run or walk profile active, so the
// walk probe and sampler replayRun would install are left out).
func replayTraced(tr *tracer, spec experiments.Spec, s *stack, w *cellWorkload, tc *tracedCell) error {
	warmupAt := uint64(float64(w.AccessCount()) * spec.WarmupFrac)
	w.Reset()
	var warm mmu.Stats
	eng := replay.New(w, replay.Hooks{
		AccessBlock: func(evs []trace.Event) (int, error) { return s.translateBlock(tr, evs) },
		Free: func(ev trace.Event) error {
			r := addr.Range{Start: uint64(ev.VA), Size: ev.Size}
			id := tr.begin("guestos.Unmap")
			err := s.proc.Unmap(r)
			tr.end(id)
			if err != nil {
				return fmt.Errorf("bench: free at %#x: %w", ev.VA, err)
			}
			for va := r.Start; va < r.End(); va += addr.PageSize4K {
				s.m.InvalidatePage(va, addr.Page4K)
			}
			return nil
		},
		Warmup: func() {
			warm = s.m.Stats()
			s.m.ResetStats()
		},
	}, replay.Config{WarmupAccesses: warmupAt})
	id := tr.begin("replay.Run")
	err := eng.Run()
	tr.end(id)
	if err != nil {
		return err
	}
	measured := eng.Counts().Measured
	st := s.m.Stats()
	ideal := float64(measured) * w.BaseCPI()
	tc.Result = experiments.Result{
		Spec:        spec,
		Accesses:    measured,
		IdealCycles: ideal,
		WalkCycles:  st.WalkCycles,
		Overhead:    perfmodel.Overhead(float64(st.WalkCycles), ideal),
		Stats:       st,
	}
	tc.Full = addStats(warm, st)
	tc.Accesses = eng.Counts().Accesses
	tc.L2Evictions = s.m.L2Evictions()
	return nil
}

// translateBlock mirrors experiments' demand-paging block protocol.
func (s *stack) translateBlock(tr *tracer, evs []trace.Event) (int, error) {
	done, attempt := 0, 0
	for {
		id := tr.begin("mmu.TranslateBlock")
		n, fault := s.m.TranslateBlock(evs[done:], nil)
		tr.end(id)
		done += n
		if fault == nil {
			return done, nil
		}
		if n > 0 {
			attempt = 0
		}
		attempt++
		if fault.Kind != mmu.FaultGuest {
			return done, fmt.Errorf("bench: unexpected nested fault at gPA %#x", fault.Addr)
		}
		id = tr.begin("guestos.HandleFault")
		err := s.proc.HandleFault(fault.Addr)
		tr.end(id)
		if err != nil {
			return done, fmt.Errorf("bench: fault at %#x: %w", fault.Addr, err)
		}
		if attempt >= 3 {
			return done, fmt.Errorf("bench: access at %#x still faulting after service", uint64(evs[done].VA))
		}
	}
}

// addStats sums two counter sets field by field.
func addStats(a, b mmu.Stats) mmu.Stats {
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		f := va.Field(i)
		f.SetUint(f.Uint() + vb.Field(i).Uint())
	}
	return a
}
