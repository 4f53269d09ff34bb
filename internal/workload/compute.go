// The compute workloads of Table V: four SPEC CPU2006 programs
// (cactusADM, GemsFDTD, mcf, omnetpp) and two PARSEC 3.0 programs
// (canneal, streamcluster). These are the Figure 12 workloads.

package workload

func init() {
	register("cactusadm", Compute, newCactusADM, func(c Config) uint64 { _, _, n := cactusShape(c); return n })
	register("gemsfdtd", Compute, newGemsFDTD, func(c Config) uint64 { _, _, _, n := gemsShape(c); return n })
	register("mcf", Compute, newMCF, func(c Config) uint64 { _, n := mcfShape(c); return n })
	register("omnetpp", Compute, newOmnetpp, func(c Config) uint64 { _, _, n := omnetppShape(c); return n })
	register("canneal", Compute, newCanneal, func(c Config) uint64 { _, n := cannealShape(c); return n })
	register("streamcluster", Compute, newStreamcluster, func(c Config) uint64 { _, n := streamclusterShape(c); return n })
}

// cubeSide returns the largest n ≤ the cube root of budget/pointBytes
// with n ≥ 1: the edge of the cubic grid a stencil workload fits in its
// budget at pointBytes per grid point.
func cubeSide(budget, pointBytes uint64) uint64 {
	n := uint64(1)
	for (n+1)*(n+1)*(n+1)*pointBytes <= budget {
		n++
	}
	return n
}

// newCactusADM models the BSSN numerical-relativity kernel: a 3D
// stencil sweep over a cubic grid. Each point reads neighbours at ±1 in
// all three dimensions; the k±1 neighbours are a full plane away, so
// every inner-loop iteration touches three widely separated pages —
// the access pattern behind cactusADM's notoriously high TLB miss rate.
func newCactusADM(cfg Config) Workload {
	n, gridBytes, totalBytes := cactusShape(cfg)
	inBase := uint64(PrimaryBase)
	outBase := inBase + gridBytes
	plane := n * n * 8
	rowB := n * 8

	b := newBuilder(cfg)
	// Different seeds start the sweep at different phases, modeling
	// different checkpoint restarts of the same simulation.
	var i, j, k uint64 = 1, 1 + b.rng.Uint64n(n-2), 1 + b.rng.Uint64n(n-2)
	var points uint64
	for !b.full() {
		center := inBase + k*plane + j*rowB + i*8
		if !b.read(center) {
			break
		}
		b.read(center - 8)     // i-1 (same line usually)
		b.read(center + 8)     // i+1
		b.read(center - rowB)  // j-1
		b.read(center + rowB)  // j+1
		b.read(center - plane) // k-1: a plane away
		b.read(center + plane) // k+1
		b.write(outBase + k*plane + j*rowB + i*8)
		points++
		// Carpet AMR: periodically exchange with another refinement box
		// at an unrelated grid position (prolongation/restriction) —
		// the scattered traffic behind cactusADM's high TLB miss rate.
		if points%64 == 0 {
			b.read(inBase + b.rng.Uint64n(gridBytes/8)*8)
			b.write(outBase + b.rng.Uint64n(gridBytes/8)*8)
		}
		i++
		if i >= n-1 {
			i = 1
			j++
			if j >= n-1 {
				j = 1
				k++
				if k >= n-1 {
					k = 1
				}
			}
		}
	}
	return b.finish("cactusadm", 1.6, primarySpan(totalBytes))
}

// cactusShape sizes cactusADM's grid, a cube of float64 in two arrays
// (in and out), and returns its edge, one array's bytes and both's.
func cactusShape(cfg Config) (n, gridBytes, totalBytes uint64) {
	n = cubeSide(uint64(cfg.MemoryMB)<<20, 8*2)
	gridBytes = n * n * n * 8
	return n, gridBytes, 2 * gridBytes
}

// newGemsFDTD models the finite-difference time-domain solver: six
// field arrays (Ex,Ey,Ez,Hx,Hy,Hz) swept in separate passes per
// timestep, each pass reading two other fields at plane offsets. The
// multi-array sweeps give GemsFDTD a larger TLB footprint than a single
// stencil, and its Fourier output phases allocate transient buffers.
func newGemsFDTD(cfg Config) Workload {
	n, field, stride, totalBytes := gemsShape(cfg)
	plane := n * n * 8
	bases := make([]uint64, 6)
	for f := range bases {
		bases[f] = PrimaryBase + uint64(f)*(stride+17*4096)
	}

	b := newBuilder(cfg)
	churn := newChurner(b, 410000, 16<<10) // transient Fourier buffers
	idx := b.rng.Uint64n(field / 8)        // seed-dependent timestep phase
	for !b.full() {
		for f := 0; f < 6 && !b.full(); f++ {
			// Update field f from two neighbours (E from H and vice
			// versa), sequential within the field, plane-offset reads.
			off := (idx * 8) % (field - plane - 8)
			if !b.write(bases[f] + off) {
				break
			}
			b.read(bases[(f+1)%6] + off)
			b.read(bases[(f+2)%6] + off + plane)
			churn.tick()
		}
		// Near-to-far-field transform: gather scattered field samples
		// on the Huygens surface — pages far from the sweep front.
		if idx%128 == 0 {
			b.read(bases[b.rng.Intn(6)] + b.rng.Uint64n(field/8)*8)
		}
		idx++
	}
	return b.finish("gemsfdtd", 0.55, primarySpan(totalBytes))
}

// gemsShape sizes GemsFDTD's six cubic float64 fields and returns the
// cube's edge, one field's bytes, the spacing between fields and the
// span the six take with a 2M margin after each. The spacing models
// allocator slack: an odd number of 2M pages between arrays (so sweep
// fronts spread across 2M-TLB sets) plus, at each base, a small 4K-odd
// stagger (so they also spread across 4K-TLB sets). Power-of-two
// strides would alias all six fronts into one set of each structure —
// a layout real allocators do not produce.
func gemsShape(cfg Config) (n, field, stride, totalBytes uint64) {
	n = cubeSide(uint64(cfg.MemoryMB)<<20, 8*6)
	field = n * n * n * 8
	stridePages := (field + (2 << 20) - 1) / (2 << 20)
	if stridePages%2 == 0 {
		stridePages++
	}
	stride = stridePages * (2 << 20)
	return n, field, stride, 6 * (stride + 2<<20)
}

// newMCF models the network-simplex solver: pointer chasing through
// node and arc structures laid out in allocation order but traversed in
// network order — long dependent chains of scattered reads, SPEC's
// classic TLB tormentor.
func newMCF(cfg Config) Workload {
	nodes, totalBytes := mcfShape(cfg)
	nodeBase := uint64(PrimaryBase)

	b := newBuilder(cfg)
	// A single long permutation cycle: visiting order is random but
	// deterministic, like tree-walking a scrambled network.
	cur := uint64(0)
	stride := nodes/2 + 1 // odd-ish stride co-prime walk
	for stride%2 == 0 || nodes%stride == 0 {
		stride++
	}
	for !b.full() {
		va := nodeBase + cur*mcfNodeSize
		if !b.read(va) { // node header (cost, potential)
			break
		}
		b.read(va + 64) // arc pointers in the second line
		if b.rng.Uint64n(4) == 0 {
			b.write(va + 64) // basis update
		}
		// Chase to the "next" node.
		if b.rng.Uint64n(8) == 0 {
			cur = b.rng.Uint64n(nodes) // re-root at a random subtree
		} else {
			cur = (cur + stride) % nodes
		}
	}
	return b.finish("mcf", 12, primarySpan(totalBytes))
}

const mcfNodeSize = 128 // mcf node struct is ~120B

// mcfShape is how many mcf nodes fill the memory budget, and their
// bytes.
func mcfShape(cfg Config) (nodes, totalBytes uint64) {
	nodes = max(uint64(cfg.MemoryMB)<<20/mcfNodeSize, 1024)
	return nodes, nodes * mcfNodeSize
}

// newOmnetpp models the discrete-event network simulator: a binary
// heap of pending events (array-backed, top-heavy access), message
// structs scattered across the heap, and steady allocation/free of
// messages — the churn that hurts shadow paging (§IX.D).
func newOmnetpp(cfg Config) Workload {
	heapSlots, msgs, totalBytes := omnetppShape(cfg)
	heapBase := uint64(PrimaryBase)
	msgBase := heapBase + heapSlots*8

	b := newBuilder(cfg)
	churn := newChurner(b, 4200, 16<<10)
	for !b.full() {
		// Pop min: touch the heap root and a log-depth path.
		slot := uint64(1)
		for slot < heapSlots {
			if !b.read(heapBase + slot*8) {
				break
			}
			child := slot*2 + b.rng.Uint64n(2)
			if child >= heapSlots || b.rng.Uint64n(4) == 0 {
				break
			}
			slot = child
		}
		// Handle the event's message: scattered struct access.
		mv := msgBase + b.rng.Uint64n(msgs)*omnetppMsgSize
		b.read(mv)
		b.write(mv + 64)
		// Schedule a follow-up: heap insert path.
		b.write(heapBase + b.rng.Uint64n(heapSlots)*8)
		churn.tick()
	}
	return b.finish("omnetpp", 78, primarySpan(totalBytes))
}

const omnetppMsgSize = 256

// omnetppShape splits omnetpp's budget into event-heap slots (1/4) and
// message structs (3/4), and returns their total bytes.
func omnetppShape(cfg Config) (heapSlots, msgs, totalBytes uint64) {
	budget := uint64(cfg.MemoryMB) << 20
	heapSlots, msgs = budget/4/8, max(budget*3/4/omnetppMsgSize, 1024)
	return heapSlots, msgs, heapSlots*8 + msgs*omnetppMsgSize
}

// newCanneal models the simulated-annealing netlist router: pick two
// random elements of a huge element array, read their net lists, and
// swap — uniformly random reads and writes over the full footprint.
func newCanneal(cfg Config) Workload {
	elems, totalBytes := cannealShape(cfg)
	elemBase := uint64(PrimaryBase)

	b := newBuilder(cfg)
	churn := newChurner(b, 6100, 32<<10)
	for !b.full() {
		a := elemBase + b.rng.Uint64n(elems)*cannealElemSize
		c := elemBase + b.rng.Uint64n(elems)*cannealElemSize
		if !b.read(a) {
			break
		}
		b.read(c)
		// Evaluate the swap: read a neighbour of each.
		b.read(elemBase + b.rng.Uint64n(elems)*cannealElemSize)
		if b.rng.Uint64n(2) == 0 { // accepted swap
			b.write(a)
			b.write(c)
		}
		churn.tick()
	}
	return b.finish("canneal", 135, primarySpan(totalBytes))
}

const cannealElemSize = 64

// cannealShape is how many netlist elements fill the memory budget,
// and their bytes.
func cannealShape(cfg Config) (elems, totalBytes uint64) {
	elems = max(uint64(cfg.MemoryMB)<<20/cannealElemSize, 1024)
	return elems, elems * cannealElemSize
}

// newStreamcluster models the online clustering kernel: stream through
// the point array sequentially and compare each point against a small
// resident set of cluster centers — the TLB-friendliest workload here,
// included as the low-overhead control.
func newStreamcluster(cfg Config) Workload {
	const pointSize, centers = streamclusterPointSize, streamclusterCenters
	points, totalBytes := streamclusterShape(cfg)
	pointBase := uint64(PrimaryBase)
	centerBase := pointBase + points*pointSize
	assignBase := centerBase + centers*pointSize

	b := newBuilder(cfg)
	var p uint64
	for !b.full() {
		va := pointBase + (p%points)*pointSize
		// Read the whole point (two cache lines of it).
		if !b.read(va) {
			break
		}
		b.read(va + 64)
		// Compare against a few centers (hot, cache/TLB resident).
		for c := 0; c < 4; c++ {
			b.read(centerBase + b.rng.Uint64n(centers)*pointSize)
		}
		b.write(assignBase + (p%points)*8)
		p++
	}
	return b.finish("streamcluster", 2.9, primarySpan(totalBytes))
}

const (
	streamclusterPointSize = 16 * 8 // 16 float64 coordinates per point
	streamclusterCenters   = 32
)

// streamclusterShape is how many points fill the memory budget, and
// the bytes of the points, the cluster centers and the assignments.
func streamclusterShape(cfg Config) (points, totalBytes uint64) {
	points = max(uint64(cfg.MemoryMB)<<20/streamclusterPointSize, 1024)
	return points, points*streamclusterPointSize + streamclusterCenters*streamclusterPointSize + points*8
}
