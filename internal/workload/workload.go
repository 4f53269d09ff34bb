// Package workload implements the paper's evaluation workloads (Table
// V) as algorithmic trace generators. Each generator executes the real
// access pattern of its namesake — BFS over an RMAT graph for graph500,
// Zipf-skewed hash probing for memcached, sparse matrix-vector products
// for NPB:CG, 3D stencil sweeps for cactusADM/GemsFDTD, pointer chasing
// for mcf, and so on — over synthetic data scaled so that the ratio of
// working set to TLB reach sits in the paper's regime.
//
// What matters to the evaluation is each workload's memory locality and
// allocation churn, not its numerical output; the generators reproduce
// the former faithfully and skip the latter.
package workload

import (
	"fmt"
	"sort"

	"vdirect/internal/addr"
	"vdirect/internal/trace"
)

// Class partitions workloads the way the paper's Table III does.
type Class uint8

// Workload classes.
const (
	BigMemory Class = iota
	Compute
)

func (c Class) String() string {
	if c == BigMemory {
		return "big-memory"
	}
	return "compute"
}

// Address-space layout every workload shares. The primary region holds
// the big data structures a direct segment would map; the stack and
// churn arenas live outside it and always use paging, as the paper's
// primary-region abstraction prescribes.
const (
	StackBase   = 0x1000_0000 // small always-paged region (stack, globals)
	StackSize   = 2 << 20
	ChurnBase   = 0x2000_0000 // allocation-churn arena (heap)
	ChurnSpan   = 0x1000_0000 // 256MB of address space to cycle through
	PrimaryBase = 0x4000_0000 // 1GB-aligned primary region base
)

// Config sizes a workload.
type Config struct {
	// Seed drives all randomness; identical configs produce identical
	// traces.
	Seed uint64
	// MemoryMB is the approximate working-set size in MiB.
	MemoryMB int
	// Ops is the approximate number of data accesses to emit.
	Ops int
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MemoryMB == 0 {
		c.MemoryMB = 64
	}
	if c.Ops == 0 {
		c.Ops = 400000
	}
	return c
}

// Workload is a Table V workload: a trace generator plus the metadata
// the evaluation needs.
type Workload interface {
	trace.Generator
	// Cursor returns a new reader of the same trace, positioned at its
	// start. A built trace is read-only, so cursors of one workload may
	// replay at once on different goroutines.
	Cursor() Workload
	// AccessCount reports how many Access events the full trace emits,
	// known without replaying it (counted while an eager trace is
	// built, closed-form for a streaming one) so the harness can place
	// the warmup boundary without a counting pass.
	AccessCount() uint64
	// Class reports big-memory vs compute (Table III / Figures 11-12).
	Class() Class
	// BaseCPI is the workload's cycles-per-access excluding address
	// translation, the T_ideal denominator of the overhead metric.
	BaseCPI() float64
	// PrimaryRegion is the virtual range a guest direct segment should
	// map for this workload.
	PrimaryRegion() addr.Range
	// StaticRegions are all virtual ranges the trace may touch outside
	// dynamic allocations: the primary region, stack, and churn arena.
	StaticRegions() []addr.Range
}

// Names lists all workloads in the order the paper's figures use.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return registry[names[i]].order < registry[names[j]].order })
	return names
}

// BigMemoryNames returns the Figure 11 workloads.
func BigMemoryNames() []string { return []string{"graph500", "memcached", "npb:cg", "gups"} }

// ComputeNames returns the Figure 12 workloads.
func ComputeNames() []string {
	return []string{"cactusadm", "gemsfdtd", "mcf", "omnetpp", "canneal", "streamcluster"}
}

type entry struct {
	build factory
	class Class
	order int
}

type factory func(Config) Workload

var registry = map[string]entry{}

func register(name string, class Class, f factory) {
	registry[name] = entry{f, class, len(registry)}
}

// lookup returns the named registry entry; it panics on unknown names,
// which are harness bugs: a user's name is checked with Exists first
// (vdirect.RunCell and RunCells, hostsim, tracestat, host.Config,
// experiments.HostStudy and ConsolidationStudy), and every other name
// comes from Names, BigMemoryNames or ComputeNames.
func lookup(name string) entry {
	e, ok := registry[name]
	if !ok {
		panic(fmt.Sprintf("workload: unknown workload %q", name))
	}
	return e
}

// New builds the named workload; it panics on unknown names.
func New(name string, cfg Config) Workload { return lookup(name).build(cfg.withDefaults()) }

// ClassOf reports the named workload's class without building its
// trace; it panics on unknown names.
func ClassOf(name string) Class { return lookup(name).class }

// Exists reports whether a workload name is registered.
func Exists(name string) bool {
	_, ok := registry[name]
	return ok
}

// base carries the state all generators share: an eagerly built event
// slice plus metadata. Eager construction keeps Next allocation-free
// and makes Reset and Cursor trivial, at the cost of holding the trace
// in memory. Embedding *trace.Slice also makes every workload a
// trace.BlockGenerator, so the replay engine streams events in blocks
// rather than one interface call per event.
type base struct {
	*trace.Slice
	accesses uint64
	cpi      float64
	primary  addr.Range
}

// Every workload streams in blocks; the replay hot path relies on it.
var _ trace.BlockGenerator = (*base)(nil)

// Cursor shares the read-only event slice; only the read position is
// new.
func (b *base) Cursor() Workload {
	c := *b
	c.Slice = b.Slice.Cursor()
	return &c
}

func (b *base) AccessCount() uint64       { return b.accesses }
func (b *base) Class() Class              { return ClassOf(b.Name()) }
func (b *base) BaseCPI() float64          { return b.cpi }
func (b *base) PrimaryRegion() addr.Range { return b.primary }

func (b *base) StaticRegions() []addr.Range {
	return []addr.Range{
		b.primary,
		{Start: StackBase, Size: StackSize},
		{Start: ChurnBase, Size: ChurnSpan},
	}
}

// builder accumulates events up to the configured op budget.
type builder struct {
	evs      []trace.Event
	accesses int
	limit    int
	rng      *trace.Rand
	// stackEvery sprinkles a stack access each time accesses (stack
	// accesses included) reaches a multiple of it, so a small fraction
	// of the trace always lies outside the primary region (function
	// calls, locals); 0 turns it off. stackIn counts the data accesses
	// left until the next one, so the hot path compares instead of
	// dividing. Set both with setStackEvery.
	stackEvery int
	stackIn    int
	stackPos   uint64
}

func newBuilder(cfg Config) *builder {
	b := &builder{
		evs:   make([]trace.Event, 0, cfg.Ops+cfg.Ops/64+16),
		limit: cfg.Ops,
		rng:   trace.NewRand(cfg.Seed),
	}
	b.setStackEvery(64)
	return b
}

// setStackEvery sets the stack-access period; call it before the first
// access.
func (b *builder) setStackEvery(n int) { b.stackEvery, b.stackIn = n, n }

// full reports whether the op budget is exhausted.
func (b *builder) full() bool { return b.accesses >= b.limit }

// access emits one data access; returns false when the budget is done.
func (b *builder) access(va uint64, write bool) bool {
	if b.full() {
		return false
	}
	b.evs = append(b.evs, trace.Event{Kind: trace.Access, VA: addr.GVA(va), Write: write})
	b.accesses++
	if b.stackIn--; b.stackEvery > 0 && b.stackIn <= 0 {
		// The stack access is itself an access, so the next multiple
		// is stackEvery-1 data accesses away (1 when stackEvery is 1).
		b.stackIn = b.stackEvery - 1
		// Stack accesses walk a few hot pages.
		b.stackPos = (b.stackPos + 8) % (16 << 10)
		b.evs = append(b.evs, trace.Event{
			Kind:  trace.Access,
			VA:    addr.GVA(StackBase + b.stackPos),
			Write: b.rng.Uint64n(2) == 0,
		})
		b.accesses++
	}
	return !b.full()
}

// read and write are convenience wrappers.
func (b *builder) read(va uint64) bool  { return b.access(va, false) }
func (b *builder) write(va uint64) bool { return b.access(va, true) }

// allocEvent emits an allocation of size bytes at va.
func (b *builder) allocEvent(va, size uint64) {
	b.evs = append(b.evs, trace.Event{Kind: trace.Alloc, VA: addr.GVA(va), Size: size})
}

// freeEvent emits a deallocation.
func (b *builder) freeEvent(va, size uint64) {
	b.evs = append(b.evs, trace.Event{Kind: trace.Free, VA: addr.GVA(va), Size: size})
}

// churner cycles allocations through the churn arena: allocEvery data
// accesses, allocate chunkSize bytes, touch each page once, and free
// the previous chunk. It models malloc/munmap traffic that dirties the
// guest page table — the §IX.D shadow-paging differentiator.
type churner struct {
	b          *builder
	allocEvery int // in data accesses
	chunk      uint64
	next       uint64 // arena cursor
	prevVA     uint64
	prevSize   uint64
	lastAlloc  int
}

func newChurner(b *builder, allocEvery int, chunk uint64) *churner {
	return &churner{b: b, allocEvery: allocEvery, chunk: chunk}
}

// tick is called once per logical operation; every allocEvery data
// accesses it performs an allocate-touch-free cycle.
func (c *churner) tick() {
	if c.allocEvery <= 0 || c.b.accesses-c.lastAlloc < c.allocEvery {
		return
	}
	c.lastAlloc = c.b.accesses
	va := ChurnBase + c.next
	if c.next+c.chunk > ChurnSpan {
		c.next = 0
		va = ChurnBase
	}
	c.next += c.chunk
	c.b.allocEvent(va, c.chunk)
	for off := uint64(0); off < c.chunk; off += addr.PageSize4K {
		if !c.b.write(va + off) {
			break
		}
	}
	if c.prevSize > 0 {
		c.b.freeEvent(c.prevVA, c.prevSize)
	}
	c.prevVA, c.prevSize = va, c.chunk
}

// finish builds the base from accumulated events; the access count is
// the one the budget was kept with, so nothing rescans them.
func (b *builder) finish(name string, cpi float64, primary addr.Range) *base {
	return &base{
		Slice:    trace.NewSlice(name, b.evs),
		accesses: uint64(b.accesses),
		cpi:      cpi,
		primary:  primary,
	}
}

// primarySpan returns a primary region of the given byte size.
func primarySpan(bytes uint64) addr.Range {
	return addr.Range{Start: PrimaryBase, Size: addr.AlignUp(bytes, addr.PageSize2M)}
}
