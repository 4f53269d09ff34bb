// The big-memory workloads of Table V: graph500, memcached, NPB:CG and
// the GUPS micro-benchmark. These are the Figure 11 workloads; the
// paper runs them with 60-75GB datasets, which scale here to tens of
// megabytes with the TLB-reach ratio preserved.

package workload

import (
	"vdirect/internal/addr"
	"vdirect/internal/trace"
)

func init() {
	register("graph500", BigMemory, newGraph500)
	register("memcached", BigMemory, newMemcached)
	register("npb:cg", BigMemory, newNPBCG)
	register("gups", BigMemory, newGUPS)
	register("tlbstress", BigMemory, newTLBStress)
}

// newTLBStress is the microbenchmark the paper uses to confirm the
// TLB-miss inflation mechanism (§IX.A): uniform random 4K-page touches
// over a working set ~1.5× the L2 TLB's reach. Natively the L2 almost
// copes; virtualized, nested entries share the structure and push the
// guest hit rate off the capacity cliff, inflating misses by the
// 1.3-1.6× band the paper reports. MemoryMB is ignored — the footprint
// must track the TLB geometry, not the dataset.
func newTLBStress(cfg Config) Workload {
	const pages = 768 // 1.5 × 512-entry L2 reach at 4K
	b := newBuilder(cfg)
	b.setStackEvery(0) // pure page stress
	for !b.full() {
		p := b.rng.Uint64n(pages)
		if !b.read(PrimaryBase + p<<12 + b.rng.Uint64n(512)*8) {
			break
		}
	}
	return b.finish("tlbstress", 20, primarySpan(pages<<12))
}

// newGUPS builds the HPCC RandomAccess micro-benchmark: read-modify-
// write updates at uniformly random 8-byte elements of a giant table.
// Every access is effectively a TLB miss — the worst case for paging
// and the best case for direct segments.
//
// GUPS is the throughput benchmark workload and the one whose trace is
// rebuilt most often, so unlike the Table V workloads it streams: the
// trace is generated block-by-block straight into the replay engine's
// buffer instead of being materialized as a multi-megabyte event slice
// per cell. The event sequence is bit-identical to what the eager
// builder emits (TestGUPSStreamMatchesBuilder holds the two together);
// the per-access state machine below mirrors builder.access with
// stackEvery=256.
func newGUPS(cfg Config) Workload {
	tableBytes := uint64(cfg.MemoryMB) << 20
	g := &gupsStream{
		seed:    cfg.Seed,
		elems:   tableBytes / 8,
		limit:   cfg.Ops,
		primary: primarySpan(tableBytes),
		count:   gupsAccessCount(cfg.Ops),
	}
	g.Reset()
	return g
}

// gupsStream is a lazy GUPS trace generator. It carries the same
// cursor state the eager builder evolves (PRNG, access counter, stack
// cursor) and re-derives events on demand; Reset rewinds by reseeding.
type gupsStream struct {
	seed    uint64
	elems   uint64
	limit   int
	primary addr.Range
	count   uint64

	// Cursor state, mirroring builder.access.
	rng      *trace.Rand
	accesses int
	stackPos uint64
	done     bool
	// One read-modify-write op emits up to four events (read, write,
	// and a stack sprinkle after either); a block boundary can split an
	// op, so undelivered events wait here.
	pending [4]trace.Event
	pi, pn  int
}

var _ trace.BlockGenerator = (*gupsStream)(nil)

// gupsAccessCount is the trace's access count in closed form. The
// counter steps by one per access and the generator stops as soon as
// it reaches limit; only a stack sprinkle, which follows the access
// that lands on a multiple of 256, can carry it one past.
func gupsAccessCount(limit int) uint64 {
	if limit%256 == 0 {
		return uint64(limit) + 1
	}
	return uint64(limit)
}

// stepInto runs one loop iteration of the builder, writing events at
// dst[n:] (dst must have room for a worst-case op of four events), and
// flags completion. It reproduces the eager loop's control flow: stop
// at the top when the budget is spent, and skip the write half when
// the read half exhausts it.
func (g *gupsStream) stepInto(dst []trace.Event, n int) int {
	if g.accesses >= g.limit {
		g.done = true
		return n
	}
	idx := g.rng.Uint64n(g.elems)
	va := PrimaryBase + idx*8
	n = g.emitInto(dst, n, va, false)
	if g.accesses >= g.limit {
		g.done = true
		return n
	}
	n = g.emitInto(dst, n, va, true) // the update half of read-modify-write
	if g.accesses >= g.limit {
		g.done = true
	}
	return n
}

// emitInto appends one data access plus its possible stack sprinkle,
// exactly as builder.access does with stackEvery=256.
func (g *gupsStream) emitInto(dst []trace.Event, n int, va uint64, write bool) int {
	dst[n] = trace.Event{Kind: trace.Access, VA: addr.GVA(va), Write: write}
	n++
	g.accesses++
	if g.accesses%256 == 0 {
		g.stackPos = (g.stackPos + 8) % (16 << 10)
		dst[n] = trace.Event{
			Kind:  trace.Access,
			VA:    addr.GVA(StackBase + g.stackPos),
			Write: g.rng.Uint64n(2) == 0,
		}
		n++
		g.accesses++
	}
	return n
}

func (g *gupsStream) Name() string { return "gups" }

func (g *gupsStream) Next() (trace.Event, bool) {
	if g.pi >= g.pn {
		if g.done {
			return trace.Event{}, false
		}
		g.pi = 0
		g.pn = g.stepInto(g.pending[:], 0)
		if g.pn == 0 {
			return trace.Event{}, false
		}
	}
	ev := g.pending[g.pi]
	g.pi++
	return ev, true
}

// NextBlock drains pending events and then generates ops directly into
// the caller's buffer until it has no room for a worst-case op (four
// events) or the trace ends.
func (g *gupsStream) NextBlock(buf []trace.Event) int {
	n := 0
	for g.pi < g.pn && n < len(buf) {
		buf[n] = g.pending[g.pi]
		g.pi++
		n++
	}
	if g.pi >= g.pn {
		g.pi, g.pn = 0, 0
		for !g.done {
			if len(buf)-n < len(g.pending) {
				// Not enough head room for a full op: stage one op in
				// pending and spill what fits.
				g.pn = g.stepInto(g.pending[:], 0)
				for g.pi < g.pn && n < len(buf) {
					buf[n] = g.pending[g.pi]
					g.pi++
					n++
				}
				if n == len(buf) {
					break
				}
				g.pi, g.pn = 0, 0
				continue
			}
			n = g.stepInto(buf, n)
		}
	}
	return n
}

func (g *gupsStream) Reset() {
	g.rng = trace.NewRand(g.seed)
	g.accesses = 0
	g.stackPos = 0
	g.done = false
	g.pi, g.pn = 0, 0
}

// Cursor returns a fresh generator: gups holds no events to share.
func (g *gupsStream) Cursor() Workload {
	c := *g
	c.Reset()
	return &c
}

func (g *gupsStream) AccessCount() uint64       { return g.count }
func (g *gupsStream) Class() Class              { return ClassOf(g.Name()) }
func (g *gupsStream) BaseCPI() float64          { return 56 }
func (g *gupsStream) PrimaryRegion() addr.Range { return g.primary }

func (g *gupsStream) StaticRegions() []addr.Range {
	return []addr.Range{
		g.primary,
		{Start: StackBase, Size: StackSize},
		{Start: ChurnBase, Size: ChurnSpan},
	}
}

// newGraph500 builds graph generation + BFS, the graph500 kernel. The
// graph is RMAT-like: power-law degrees with uniformly scattered
// neighbours. The trace interleaves the characteristic patterns:
// sequential scans of per-vertex edge lists and random probes of the
// visited/parent array.
func newGraph500(cfg Config) Workload {
	// Memory splits ~1/8 vertex arrays, ~7/8 edge list, as edgefactor-16
	// graphs do.
	budget := uint64(cfg.MemoryMB) << 20
	vertices := budget / 8 / 16 // 8B per parent entry; 16 edges per vertex avg
	if vertices < 1024 {
		vertices = 1024
	}
	edges := vertices * 16

	// Layout inside the primary region.
	parentBase := uint64(PrimaryBase)    // vertices * 8
	rowBase := parentBase + vertices*8   // vertices+1 * 8
	edgeBase := rowBase + (vertices+1)*8 // edges * 8
	totalBytes := edgeBase + edges*8 - PrimaryBase

	b := newBuilder(cfg)
	rng := b.rng

	// Vertex properties are derived by hashing, not materialized: the
	// degree distribution is power-law-ish (doubling with geometrically
	// decreasing probability, RMAT style) and each vertex's edge list
	// starts at a hash-scattered position in the edge array, as CSR
	// layouts built from scrambled vertex IDs do.
	mix := func(x uint64) uint64 {
		x ^= x >> 33
		x *= 0xFF51AFD7ED558CCD
		x ^= x >> 33
		x *= 0xC4CEB9FE1A85EC53
		return x ^ (x >> 33)
	}
	degreeOf := func(h uint64) uint64 {
		d := uint64(4)
		for d < 64 && h&3 == 0 { // P(double) = 1/4 per level
			d *= 2
			h >>= 2
		}
		return d
	}

	// BFS simulation: process frontier vertices in effectively random
	// order. For each: read its rowPtr words, scan its edge list
	// sequentially from its scattered start, and probe parent[] for
	// each (random) neighbour; unvisited neighbours get a parent write.
	probes := uint64(0)
	for !b.full() {
		u := rng.Uint64n(vertices)
		if !b.read(rowBase + u*8) {
			break
		}
		b.read(rowBase + (u+1)*8)
		h := mix(u)
		start := h % edges
		for e, d := uint64(0), degreeOf(h); e < d; e++ {
			if !b.read(edgeBase + ((start+e)%edges)*8) {
				break
			}
			v := mix(h+e) % vertices // neighbour is scattered (RMAT)
			if !b.read(parentBase + v*8) {
				break
			}
			// Early in BFS most probes find unvisited vertices (write);
			// later almost none do.
			probes++
			if probes%3 != 0 {
				b.write(parentBase + v*8)
			}
		}
	}
	return b.finish("graph500", 96, primarySpan(totalBytes))
}

// newMemcached builds the key-value cache pattern: Zipf-skewed GETs
// (hash a key, probe the bucket array, chase to the item, read the
// value spanning a few lines) with a small fraction of SETs, plus slab
// allocation churn — the behaviour that makes memcached the worst case
// for shadow paging (§IX.D).
func newMemcached(cfg Config) Workload {
	budget := uint64(cfg.MemoryMB) << 20
	// ~1/8 bucket array, 7/8 item arena; 512B per item slot.
	buckets := budget / 8 / 8
	if buckets < 1024 {
		buckets = 1024
	}
	const itemSize = 512
	items := (budget - buckets*8) / itemSize
	bucketBase := uint64(PrimaryBase)
	itemBase := bucketBase + buckets*8
	totalBytes := buckets*8 + items*itemSize

	b := newBuilder(cfg)
	zipf := trace.NewZipf(b.rng, items, 0.99)
	churn := newChurner(b, 3600, 64<<10) // slab allocations
	for !b.full() {
		rank := zipf.Rank()
		// Key popularity by rank; bucket is a hash of the key, so
		// scramble the rank to scatter hot keys across buckets.
		hash := rank * 0x9E3779B97F4A7C15
		if !b.read(bucketBase + (hash%buckets)*8) {
			break
		}
		itemVA := itemBase + (rank%items)*itemSize
		b.read(itemVA)       // item header
		b.read(itemVA + 64)  // key compare
		b.read(itemVA + 256) // value
		if b.rng.Uint64n(10) == 0 {
			b.write(itemVA + 256) // SET
		}
		churn.tick()
	}
	return b.finish("memcached", 98, primarySpan(totalBytes))
}

// newNPBCG builds the NAS CG kernel: conjugate gradient iterations
// dominated by sparse matrix-vector products — sequential row/column
// index scans with gathers of x[col] at banded-random columns.
func newNPBCG(cfg Config) Workload {
	budget := uint64(cfg.MemoryMB) << 20
	// Matrix ~ 3/4 of memory (8B value + 4B index per nonzero, rounded
	// to 16B), vectors the rest.
	nnz := budget * 3 / 4 / 16
	rows := nnz / 12 // ~12 nonzeros per row
	if rows < 512 {
		rows = 512
	}
	valBase := uint64(PrimaryBase)
	colBase := valBase + nnz*8
	xBase := colBase + nnz*8
	totalBytes := nnz*16 + rows*8*3 // values+cols, x, p, q vectors

	b := newBuilder(cfg)
	var cursor uint64
	for !b.full() {
		// One row of A·x.
		row := cursor % rows
		cursor++
		perRow := nnz / rows
		start := row * perRow
		var acc uint64
		for k := uint64(0); k < perRow; k++ {
			if !b.read(valBase + (start+k)*8) {
				break
			}
			b.read(colBase + (start+k)*8)
			// Banded-random column: near the diagonal, with occasional
			// long-range entries — CG's locality signature.
			var col uint64
			if b.rng.Uint64n(8) == 0 {
				col = b.rng.Uint64n(rows)
			} else {
				lo := int64(row) - 2048 + int64(b.rng.Uint64n(4096))
				if lo < 0 {
					lo = 0
				}
				col = uint64(lo) % rows
			}
			b.read(xBase + col*8)
			acc += col
		}
		b.write(xBase + rows*8 + row*8) // q[row] = acc (q vector after x)
		_ = acc
	}
	return b.finish("npb:cg", 5.0, primarySpan(totalBytes))
}
