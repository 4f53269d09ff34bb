// Package host is the whole-host consolidation layer: it builds and
// drives N virtual machines — each with its own guest kernel, tenant
// processes, ASID-tagged MMU, and replay engines — contending for one
// shared physmem.Memory, under a host policy engine that runs the
// paper's memory services as churn: ballooning tug-of-war (§VI.C),
// memory hotplug, page retirement into the escape filter (§V),
// content-based page sharing (§IX.E), and intra-host live migration.
//
// The modeled question is §VIII/§IX at machine scale: as consolidation
// density rises on a fixed host, when does the contiguous host run a
// VMM segment needs stop being creatable (the fragmentation knee), and
// what does the escape filter cost once host services have polluted it?
//
// Determinism contract: guests are share-nothing during replay — each
// owns its MMU, guest physical memory, page tables, and nested table —
// so sched.RunSharded can partition them across shard goroutines.
// Everything that touches shared host state (the policy engine, the
// physical allocator) runs serially: at admission time and at the
// quantum barrier between rounds. Every random draw comes from one
// trace.Rand seeded by the config, so a run is byte-identical at any
// shard count or host parallelism.
package host

import (
	"errors"
	"fmt"
	"math"

	"vdirect/internal/addr"
	"vdirect/internal/guestos"
	"vdirect/internal/mmu"
	"vdirect/internal/physmem"
	"vdirect/internal/replay"
	"vdirect/internal/telemetry/walkprof"
	"vdirect/internal/trace"
	"vdirect/internal/vmm"
	"vdirect/internal/workload"
)

// Quantum is the per-tenant scheduling quantum, in accesses, between
// policy barriers. It is small so a host run interleaves several
// policy rounds with replay even at small trace sizes. Results are
// identical at any value only in the absence of policy churn, so the
// quantum is part of the host model, not a performance knob.
const Quantum = 1 << 13

// Config describes one whole-host simulation cell.
type Config struct {
	// Name labels the cell in walk profiles ("host-d4/gups").
	Name string
	// HostMemory is the host physical memory size in bytes; 0 sizes the
	// host generously for Guests (no contention). The density studies
	// pass a fixed value across densities — that is the experiment.
	HostMemory uint64
	// Guests is the consolidation density: how many VMs to admit.
	Guests int
	// TenantsPerGuest is the number of processes per guest (default 2).
	TenantsPerGuest int
	// Workload names the Table V workload every tenant runs.
	Workload string
	// WL sizes each tenant's trace; WL.Seed is the base seed, varied
	// per (guest, tenant).
	WL workload.Config
	// GuestHeadroom is extra guest physical memory per guest beyond the
	// tenants' primary backing (page tables, stacks, churn arenas,
	// balloon slack). Default 64MB.
	GuestHeadroom uint64
	// Seed drives the policy engine's random draws.
	Seed uint64
	// AdmitChurn is how many policy ops run after each admission
	// (default 8); RoundChurn how many run at each quantum barrier
	// (default 1).
	AdmitChurn int
	RoundChurn int
	// BalloonFloor is the free guest memory a guest always keeps when
	// ballooned, so demand paging keeps working. Default 32MB.
	BalloonFloor uint64
	// Shards is host-side parallelism for the replay phase (results are
	// identical at any value ≥ 1).
	Shards int
	// NoDirect admits every guest Base Virtualized 4K+4K without trying
	// for the contiguous host run Dual Direct needs.
	NoDirect bool
	// SkipCrossCheck disables the per-guest oracle differential check
	// after replay (it is cheap; benchmarks may skip it).
	SkipCrossCheck bool
}

func (c *Config) defaults() error {
	if c.Guests <= 0 {
		return fmt.Errorf("host: need at least one guest, got %d", c.Guests)
	}
	if c.TenantsPerGuest <= 0 {
		c.TenantsPerGuest = 2
	}
	if c.Workload == "" {
		c.Workload = "gups"
	}
	if !workload.Exists(c.Workload) {
		return fmt.Errorf("host: unknown workload %q", c.Workload)
	}
	if c.WL.MemoryMB == 0 {
		c.WL = workload.Config{Seed: 1, MemoryMB: 24, Ops: 50000}
	}
	if c.GuestHeadroom == 0 {
		c.GuestHeadroom = 64 << 20
	}
	// Churn knobs: 0 means default, negative means none.
	if c.AdmitChurn == 0 {
		c.AdmitChurn = 8
	} else if c.AdmitChurn < 0 {
		c.AdmitChurn = 0
	}
	if c.RoundChurn == 0 {
		c.RoundChurn = 1
	} else if c.RoundChurn < 0 {
		c.RoundChurn = 0
	}
	if c.BalloonFloor == 0 {
		c.BalloonFloor = 32 << 20
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Name == "" {
		c.Name = fmt.Sprintf("host-d%d/%s", c.Guests, c.Workload)
	}
	return nil
}

// GuestSize returns the guest physical memory size one guest of this
// configuration needs (used by the density studies to size the host).
func (c *Config) GuestSize() uint64 {
	w := workload.New(c.Workload, c.WL)
	prim := w.PrimaryRegion()
	perTenant := addr.AlignUp(prim.Size, addr.PageSize4K) + addr.PageSize4K
	return addr.AlignUp(uint64(c.TenantsPerGuest)*perTenant+c.GuestHeadroom, addr.PageSize4K)
}

// MaxHostMemory bounds the host memory a cell may model. The VMM and
// physmem keep about 10 bytes of bookkeeping per 4K host frame, so a
// larger host would exhaust the simulator's own memory before the
// first guest is admitted; NewSim refuses it up front instead.
const MaxHostMemory = 256 << 30

// KneeHostMemory returns the fixed host size for a density sweep of
// 1..maxDensity guests of this configuration. It places the
// fragmentation knee inside the sweep: about 5/8 of maxDensity guests
// fit Dual Direct, and the remainder must fall back and balloon.
// A density or size too large for its integer saturates instead of
// wrapping; NewSim refuses anything past MaxHostMemory.
func (c *Config) KneeHostMemory(maxDensity int) uint64 {
	gs := c.GuestSize()
	knee := max(maxDensity/8*5+maxDensity%8*5/8, 1) // maxDensity*5/8 without overflow
	return addr.AlignUp(min(uint64(knee), math.MaxUint64/4/gs)*gs+gs/2+(16<<20), addr.PageSize4K)
}

// nptOverheadFrames estimates the host frames a guest's nested page
// table consumes at 4K nested pages (one L1 table per 2M of guest
// memory, plus upper levels).
func nptOverheadFrames(guestSize uint64) uint64 {
	leaves := guestSize >> addr.PageShift4K
	return leaves/512 + leaves/(512*512) + 8
}

// Guest is one admitted VM and its private simulation stack.
type Guest struct {
	Index int
	Name  string
	// Mode is the translation scheme the guest ended up on: Dual Direct
	// when admission could still carve a contiguous host run, Base
	// Virtualized 4K+4K once it could not.
	Mode mmu.Mode
	// Direct reports whether the guest runs with a VMM segment.
	Direct bool

	VM     *vmm.VM
	Kernel *guestos.Kernel
	Procs  []*guestos.Process
	Sched  *guestos.Scheduler
	MMU    *mmu.MMU

	engines   []*replay.Engine
	workloads []workload.Workload
	done      []bool

	// Replay accounting, written only by the owning shard during the
	// replay phase (sched.RunSharded's determinism contract).
	accesses []uint64 // by tenant

	// escaped is the exact set of gPA pages this guest's host layer
	// inserted into the VMM escape filter (the oracle mirror of the
	// Bloom filter's membership).
	escaped map[uint64]bool
	// sharedGPAs are guest pages currently remapped onto deduplicated
	// frames (CoW-break candidates for the policy engine).
	sharedGPAs []uint64
	// invalidate marks that a policy op changed this guest's nested
	// state; the op wrapper flushes the MMU once per affected guest.
	invalidate bool

	// Policy-op counters.
	Balloons, Hotplugs, Retires, SharedIn, CoWBreaks, Migrations uint64
}

// Owner returns the guest's physmem owner ID (guest 0 → owner 1;
// OwnerNone stays reserved for VMM-internal frames).
func (g *Guest) Owner() physmem.OwnerID { return physmem.OwnerID(g.Index + 1) }

// Sim is one whole-host simulation.
type Sim struct {
	Cfg    Config
	Host   *vmm.Host
	Guests []*Guest

	guestSize uint64
	rng       *trace.Rand
	byVM      map[*vmm.VM]*Guest
	prof      *walkprof.Profile
	samplers  []*walkprof.Sampler
}

// NewSim builds the host and admits every guest, running policy churn
// between admissions. Guests are admitted Dual Direct while the host
// can still provide a contiguous backing run; afterwards they fall
// back to Base Virtualized 4K+4K, ballooning earlier guests if even
// scattered frames run short (the tug-of-war).
func NewSim(cfg Config) (*Sim, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	gs := cfg.GuestSize()
	if cfg.HostMemory == 0 {
		if uint64(cfg.Guests) > MaxHostMemory/gs {
			return nil, fmt.Errorf("host: %d guests of %d MB need more than the %d GB host memory limit",
				cfg.Guests, gs>>20, MaxHostMemory>>30)
		}
		cfg.HostMemory = addr.AlignUp(uint64(cfg.Guests)*(gs+gs/4)+(64<<20), addr.PageSize4K)
	}
	if cfg.HostMemory > MaxHostMemory {
		return nil, fmt.Errorf("host: %d MB of host memory exceeds the %d GB limit", cfg.HostMemory>>20, MaxHostMemory>>30)
	}
	s := &Sim{
		Cfg:       cfg,
		Host:      vmm.NewHost(cfg.HostMemory),
		guestSize: gs,
		rng:       trace.NewRand(cfg.Seed ^ 0x4057),
		byVM:      make(map[*vmm.VM]*Guest),
		prof:      walkprof.Enabled(),
	}
	s.Host.Mem.TrackOwners()
	s.Host.SetCallbacks(s.callbacks())
	for i := 0; i < cfg.Guests; i++ {
		if err := s.admit(i); err != nil {
			return nil, fmt.Errorf("host: admitting guest %d: %w", i, err)
		}
		if err := s.churn(cfg.AdmitChurn); err != nil {
			return nil, fmt.Errorf("host: churn after guest %d: %w", i, err)
		}
	}
	return s, nil
}

// admit builds guest i: VM (Dual Direct if possible), kernel, tenant
// processes, MMU, and replay engines. All host allocations it causes
// are attributed to the guest's owner ID.
func (s *Sim) admit(i int) error {
	prevOwner := s.Host.Mem.SetAllocOwner(physmem.OwnerID(i + 1))
	defer s.Host.Mem.SetAllocOwner(prevOwner)

	g := &Guest{
		Index:   i,
		Name:    fmt.Sprintf("guest%d", i),
		escaped: make(map[uint64]bool),
	}

	// Dual Direct needs the §VI.A boot-time contiguous reservation;
	// when host memory is too fragmented (or too full) for that, or
	// the configuration rules it out, the guest is admitted Base
	// Virtualized over scattered 4K frames.
	var vm *vmm.VM
	err := vmm.ErrHostFragmented
	if !s.Cfg.NoDirect {
		vm, err = s.Host.CreateVM(vmm.VMConfig{
			Name:              g.Name,
			MemorySize:        s.guestSize,
			NestedPageSize:    addr.Page4K,
			ContiguousBacking: true,
		})
	}
	switch {
	case err == nil:
		g.Direct = true
		g.Mode = mmu.ModeDualDirect
	case errors.Is(err, vmm.ErrHostFragmented):
		vm, err = s.createChunked(g)
		if err != nil {
			return err
		}
		g.Mode = mmu.ModeBaseVirtualized
	default:
		return err
	}
	g.VM = vm
	s.byVM[vm] = g
	// fail rolls a half-admitted guest back out of the host, so a
	// failed admission leaks no frames and its owner ID stays clean for
	// a retry.
	fail := func(err error) error {
		delete(s.byVM, vm)
		s.Host.DestroyVM(vm)
		return err
	}
	g.Kernel = guestos.NewKernel(vm.GuestMem, vm)
	g.MMU = mmu.New(mmu.Config{})
	g.MMU.SetNestedPageTable(vm.NPT)
	if g.Direct {
		seg, err := vm.TryEnableVMMSegment()
		if err != nil {
			return fail(err)
		}
		g.MMU.SetVMMSegment(seg)
	}

	if err := s.buildTenants(g); err != nil {
		return fail(err)
	}
	// The scheme is per-tenant state (guest segment registers load on
	// context switch); switch tenant 0 in to assert the assembled mode.
	if err := g.Sched.SwitchTo(0, g.MMU); err != nil {
		return fail(err)
	}
	if got := g.MMU.Mode(); got != g.Mode {
		return fail(fmt.Errorf("host: guest %d assembled mode %v, wanted %v", i, got, g.Mode))
	}

	s.Guests = append(s.Guests, g)
	if s.prof != nil {
		sampler := s.prof.Sampler(s.Cfg.Name, i, s.Cfg.WL.Seed+uint64(i))
		g.MMU.SetWalkSampler(sampler)
		s.samplers = append(s.samplers, sampler)
	}
	return nil
}

// createChunked admits a guest over scattered 4K frames, ballooning
// earlier guests first when even those run short — the host squeezes
// existing tenants to fit one more (the tug-of-war).
func (s *Sim) createChunked(g *Guest) (*vmm.VM, error) {
	cfg := vmm.VMConfig{
		Name:           g.Name,
		MemorySize:     s.guestSize,
		NestedPageSize: addr.Page4K,
	}
	need := (s.guestSize >> addr.PageShift4K) + nptOverheadFrames(s.guestSize)
	if free := s.Host.Mem.FreeFrames(); free < need {
		if err := s.balloonForFrames(need - free); err != nil {
			return nil, err
		}
	}
	vm, err := s.Host.CreateVM(cfg)
	if err != nil {
		return nil, fmt.Errorf("host: overcommitted even after ballooning: %w", err)
	}
	return vm, nil
}

// balloonForFrames squeezes admitted guests, in admission order, until
// the host has freed `frames` more frames or every guest is at its
// balloon floor.
func (s *Sim) balloonForFrames(frames uint64) error {
	floorFrames := s.Cfg.BalloonFloor >> addr.PageShift4K
	for _, victim := range s.Guests {
		if frames == 0 {
			return nil
		}
		free := victim.Kernel.Mem.FreeFrames()
		if free <= floorFrames {
			continue
		}
		take := free - floorFrames
		if take > frames {
			take = frames
		}
		if _, err := victim.Kernel.BalloonOut(take<<addr.PageShift4K, nil); err != nil {
			return fmt.Errorf("host: ballooning %s: %w", victim.Name, err)
		}
		s.flushInvalidated()
		frames -= take
	}
	if frames > 0 {
		return fmt.Errorf("host: %d frames still short after ballooning every guest to its floor", frames)
	}
	return nil
}

// buildTenants creates the guest's processes, workloads, and replay
// engines. Dual Direct tenants get segment-backed primary regions;
// Base tenants get eagerly mapped 4K paging.
func (s *Sim) buildTenants(g *Guest) error {
	n := s.Cfg.TenantsPerGuest
	g.Procs = make([]*guestos.Process, n)
	g.workloads = make([]workload.Workload, n)
	g.engines = make([]*replay.Engine, n)
	g.done = make([]bool, n)
	g.accesses = make([]uint64, n)
	for t := 0; t < n; t++ {
		wcfg := s.Cfg.WL
		wcfg.Seed = s.Cfg.WL.Seed + uint64(g.Index*n+t)*0x9e37 + uint64(t) + 1
		w := workload.New(s.Cfg.Workload, wcfg)
		proc, err := g.Kernel.CreateProcess(fmt.Sprintf("%s/t%d", g.Name, t))
		if err != nil {
			return err
		}
		if err := proc.LayOut(w, g.Direct, addr.Page4K); err != nil {
			return err
		}
		g.Procs[t] = proc
		g.workloads[t] = w
		tenant := t
		g.engines[t] = replay.New(w, replay.Hooks{
			AccessBlock: func(evs []trace.Event) (int, error) {
				return g.translateBlock(tenant, evs)
			},
		}, replay.Config{})
	}
	g.Sched = guestos.NewScheduler(g.Procs)
	return nil
}

// step advances every live tenant of the guest by one quantum, context
// switching the guest MMU between tenants (ASID-tagged, so switching
// costs tag updates, not TLB flushes). Returns true when every tenant
// has drained its trace. Runs inside a shard goroutine; touches only
// guest-private state.
func (g *Guest) step() (bool, error) {
	allDone := true
	for t, eng := range g.engines {
		if g.done[t] {
			continue
		}
		if err := g.Sched.SwitchTo(t, g.MMU); err != nil {
			return true, err
		}
		n, more, err := eng.Step(Quantum)
		g.accesses[t] += uint64(n)
		if err != nil {
			return true, fmt.Errorf("host: %s tenant %d: %w", g.Name, t, err)
		}
		if more {
			allDone = false
		} else {
			g.done[t] = true
		}
	}
	return allDone, nil
}

// translateBlock is the per-tenant access hook: the standard demand-
// paging protocol against the guest's shared MMU with the tenant's
// process switched in.
func (g *Guest) translateBlock(tenant int, evs []trace.Event) (int, error) {
	n, err := g.Procs[tenant].TranslateBlock(g.MMU, evs, nil)
	if err != nil {
		err = fmt.Errorf("host: %w", err)
	}
	return n, err
}

// callbacks wires the VMM's host-layer seam: every operation that
// changes which host frame backs which guest page updates the owning
// guest's escape filter (segment guests), exact escaped set, CoW
// candidate list, and op counters, and marks its MMU for invalidation.
func (s *Sim) callbacks() vmm.Callbacks {
	return vmm.Callbacks{
		Ballooned: func(vm *vmm.VM, gpa uint64) {
			g := s.byVM[vm]
			if g == nil {
				return
			}
			g.Balloons++
			s.escapeIfCovered(g, gpa)
			g.invalidate = true
		},
		Hotplugged: func(vm *vmm.VM, r addr.Range) {
			if g := s.byVM[vm]; g != nil {
				g.Hotplugs++
			}
		},
		Unplugged: func(vm *vmm.VM, gpa uint64) {
			g := s.byVM[vm]
			if g == nil {
				return
			}
			s.escapeIfCovered(g, gpa)
			g.invalidate = true
		},
		Shared: func(vm *vmm.VM, gpa uint64) {
			g := s.byVM[vm]
			if g == nil {
				return
			}
			g.SharedIn++
			g.sharedGPAs = append(g.sharedGPAs, gpa)
			g.invalidate = true
		},
		CoWBroken: func(vm *vmm.VM, gpa uint64) {
			g := s.byVM[vm]
			if g == nil {
				return
			}
			g.CoWBreaks++
			g.invalidate = true
		},
	}
}

// escapeIfCovered inserts a gPA page into the guest's VMM escape
// filter when a VMM segment covers it: the segment would otherwise
// keep translating an address whose backing is gone (§V — the filter
// diverts covered-but-stale pages to the nested walk).
func (s *Sim) escapeIfCovered(g *Guest, gpa uint64) {
	seg := g.VM.VMMSegment()
	if !seg.Enabled() || !seg.Contains(gpa) {
		return
	}
	pfn := gpa >> addr.PageShift4K
	if !g.escaped[pfn] {
		g.escaped[pfn] = true
		g.MMU.VMMEscapeFilter().Insert(pfn)
	}
}

// flushInvalidated flushes nested TLB state on every guest a policy op
// touched, once per guest per op.
func (s *Sim) flushInvalidated() {
	for _, g := range s.Guests {
		if g.invalidate {
			g.MMU.InvalidateNested()
			g.invalidate = false
		}
	}
}
