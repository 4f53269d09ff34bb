// Package physmem models a physical memory of 4KB frames. Both the host
// machine memory and each VM's guest physical memory are instances of
// Memory. It supplies everything the paper's software stack needs from
// the physical layer:
//
//   - frame allocation and freeing (guest OS / VMM allocators),
//   - boot-time contiguous reservation (§VI.A),
//   - fragmentation injection for the §IV studies,
//   - memory compaction (Linux's compaction daemon, §IV/§VI.C),
//   - a bad-page list feeding the escape filter (§V),
//   - the x86-64 I/O gap that splits low memory (§IV).
package physmem

import (
	"errors"
	"fmt"
	"math/bits"

	"vdirect/internal/addr"
)

// Errors returned by allocation operations.
var (
	ErrOutOfMemory   = errors.New("physmem: out of memory")
	ErrNoContiguous  = errors.New("physmem: no contiguous run large enough")
	ErrNotAllocated  = errors.New("physmem: frame not allocated")
	ErrBadFrame      = errors.New("physmem: frame is on the bad-page list")
	ErrOutOfRange    = errors.New("physmem: frame out of range")
	ErrDoubleAlloc   = errors.New("physmem: frame already allocated")
	ErrGapViolation  = errors.New("physmem: range intersects the I/O gap")
	ErrAlreadyOnline = errors.New("physmem: range already online")
)

const frameShift = addr.PageShift4K

// Config controls construction of a Memory.
type Config struct {
	// Name labels the memory in errors and dumps ("host", "guest0"...).
	Name string
	// Size is the total byte span of the physical address space.
	Size uint64
	// IOGap carves the x86-64 I/O gap (3-4GB) out of usable memory, as
	// real chipsets do. Only meaningful when Size > 3GB.
	IOGap bool
}

// Memory is a physical memory frame map. It is not safe for concurrent
// use; the simulator is single-threaded per experiment.
type Memory struct {
	name     string
	frames   uint64   // total frames spanned (including gap)
	alloc    []uint64 // allocated bitmap, 1 = in use
	offline  []uint64 // offline bitmap (I/O gap, unplugged, ballooned)
	bad      []uint64 // bad-page bitmap
	numAlloc uint64
	numOff   uint64
	ioGap    bool
	// hint is the word index where the next availability search starts;
	// it keeps dense allocation O(1) amortized. Invariant: no available
	// frame exists below word hint.
	hint int

	// Moves accumulates relocations performed by Compact so the owner
	// (VMM or guest OS) can repair its mappings.
	moves []Move

	// Owner accounting (optional, see TrackOwners): every allocated
	// frame carries the owner tag that was current when it was
	// allocated, and ownerCount holds the per-owner allocated-frame
	// totals. The consolidated-host driver uses it to attribute every
	// host frame to the guest whose operation took it.
	owners     []OwnerID
	ownerCount map[OwnerID]uint64
	curOwner   OwnerID
}

// OwnerID tags the owner of an allocated frame when owner tracking is
// enabled. OwnerNone (0) is the anonymous/host owner.
type OwnerID uint16

// OwnerNone is the default owner tag: frames allocated outside any
// owner scope (or before TrackOwners) belong to it.
const OwnerNone OwnerID = 0

// Move records one frame relocation performed by compaction.
type Move struct{ Old, New uint64 }

// New creates a Memory per the config.
func New(cfg Config) *Memory {
	if cfg.Size == 0 || cfg.Size%addr.PageSize4K != 0 {
		panic(fmt.Sprintf("physmem: size %#x not a positive multiple of 4K", cfg.Size))
	}
	frames := cfg.Size >> frameShift
	words := (frames + 63) / 64
	m := &Memory{
		name:    cfg.Name,
		frames:  frames,
		alloc:   make([]uint64, words),
		offline: make([]uint64, words),
		bad:     make([]uint64, words),
		ioGap:   cfg.IOGap && cfg.Size > addr.IOGapStart,
	}
	if m.ioGap {
		start := addr.IOGapStart >> frameShift
		end := addr.IOGapEnd >> frameShift
		if end > frames {
			end = frames
		}
		for f := start; f < end; f++ {
			m.setBit(m.offline, f)
			m.numOff++
		}
	}
	return m
}

// Name returns the memory's label.
func (m *Memory) Name() string { return m.name }

// Frames returns the total number of frames spanned (gap included).
func (m *Memory) Frames() uint64 { return m.frames }

// Size returns the byte span of the address space.
func (m *Memory) Size() uint64 { return m.frames << frameShift }

// UsableFrames returns frames that are online (not gap/unplugged).
func (m *Memory) UsableFrames() uint64 { return m.frames - m.numOff }

// AllocatedFrames returns the number of frames currently in use.
func (m *Memory) AllocatedFrames() uint64 { return m.numAlloc }

// FreeFrames returns frames that are online, not allocated, not bad.
func (m *Memory) FreeFrames() uint64 {
	var n uint64
	for w := range m.alloc {
		unavailable := m.alloc[w] | m.offline[w] | m.bad[w]
		n += uint64(bits.OnesCount64(^unavailable))
	}
	// The last word may have phantom bits past the end.
	if rem := m.frames % 64; rem != 0 {
		w := len(m.alloc) - 1
		unavailable := m.alloc[w] | m.offline[w] | m.bad[w]
		phantom := ^unavailable >> rem
		n -= uint64(bits.OnesCount64(phantom))
	}
	return n
}

// TrackOwners enables per-frame owner accounting. Frames already
// allocated are attributed to OwnerNone. Idempotent.
func (m *Memory) TrackOwners() {
	if m.owners != nil {
		return
	}
	m.owners = make([]OwnerID, m.frames)
	m.ownerCount = map[OwnerID]uint64{}
	if m.numAlloc > 0 {
		m.ownerCount[OwnerNone] = m.numAlloc
	}
}

// TrackingOwners reports whether owner accounting is enabled.
func (m *Memory) TrackingOwners() bool { return m.owners != nil }

// SetAllocOwner sets the owner tag stamped onto subsequently allocated
// frames and returns the previous tag, so callers can scope an owner
// around an operation:
//
//	prev := mem.SetAllocOwner(id)
//	defer mem.SetAllocOwner(prev)
func (m *Memory) SetAllocOwner(o OwnerID) OwnerID {
	prev := m.curOwner
	m.curOwner = o
	return prev
}

// OwnerRun returns the owner of allocated frame f and the length n,
// from 1 up to limit, of the run of allocated frames from f with that
// owner. tracked is false when tracking is off or f is not allocated.
func (m *Memory) OwnerRun(f, limit uint64) (o OwnerID, n uint64, tracked bool) {
	if m.owners == nil || !m.IsAllocated(f) {
		return OwnerNone, 0, false
	}
	o, end, last := m.owners[f], f+1, f+min(limit, m.frames-f)
	for end < last && m.owners[end] == o && m.bit(m.alloc, end) {
		end++
	}
	return o, end - f, true
}

// OwnerFrames returns the number of allocated frames stamped with the
// owner (0 when tracking is off).
func (m *Memory) OwnerFrames(o OwnerID) uint64 {
	if m.ownerCount == nil {
		return 0
	}
	return m.ownerCount[o]
}

// stamp records ownership of newly allocated frame f.
func (m *Memory) stamp(f uint64) {
	if m.owners == nil {
		return
	}
	m.owners[f] = m.curOwner
	m.ownerCount[m.curOwner]++
}

// stampRange records ownership of the newly allocated frames
// [start, start+n).
func (m *Memory) stampRange(start, n uint64) {
	if m.owners == nil {
		return
	}
	for f := start; f < start+n; f++ {
		m.owners[f] = m.curOwner
	}
	m.ownerCount[m.curOwner] += n
}

// unstamp clears ownership of frame f as it is freed.
func (m *Memory) unstamp(f uint64) {
	if m.owners == nil {
		return
	}
	o := m.owners[f]
	m.owners[f] = OwnerNone
	if c := m.ownerCount[o]; c <= 1 {
		delete(m.ownerCount, o)
	} else {
		m.ownerCount[o] = c - 1
	}
}

// CheckOwnerAccounting verifies the owner books against the frame
// bitmaps: the per-owner counts must sum exactly to the allocated-frame
// total, and a full rescan of the owner stamps must reproduce each
// owner's count. The rescan counts each run of allocated frames with
// equal stamps and adds the run once, so a guest's contiguous backing
// costs one map update, not one per frame. It returns nil when
// tracking is off (nothing to check).
func (m *Memory) CheckOwnerAccounting() error {
	if m.owners == nil {
		return nil
	}
	var sum uint64
	for _, c := range m.ownerCount {
		sum += c
	}
	if sum != m.numAlloc {
		return fmt.Errorf("physmem %s: owner counts sum to %d, %d frames allocated",
			m.name, sum, m.numAlloc)
	}
	rescan := map[OwnerID]uint64{}
	for f := uint64(0); f < m.frames; {
		if !m.bit(m.alloc, f) {
			f++
			continue
		}
		o, n, _ := m.OwnerRun(f, m.frames-f)
		rescan[o] += n
		f += n
	}
	if len(rescan) != len(m.ownerCount) {
		return fmt.Errorf("physmem %s: rescan found %d owners, books say %d",
			m.name, len(rescan), len(m.ownerCount))
	}
	for o, c := range rescan {
		if m.ownerCount[o] != c {
			return fmt.Errorf("physmem %s: owner %d has %d stamped frames, books say %d",
				m.name, o, c, m.ownerCount[o])
		}
	}
	return nil
}

// Owners returns the owner tags with at least one allocated frame, in
// ascending order (deterministic regardless of map state).
func (m *Memory) Owners() []OwnerID {
	if m.ownerCount == nil {
		return nil
	}
	out := make([]OwnerID, 0, len(m.ownerCount))
	for o := range m.ownerCount {
		out = append(out, o)
	}
	for i := 1; i < len(out); i++ { // insertion sort: owner sets are tiny
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func (m *Memory) setBit(bm []uint64, f uint64)   { bm[f/64] |= 1 << (f % 64) }
func (m *Memory) clrBit(bm []uint64, f uint64)   { bm[f/64] &^= 1 << (f % 64) }
func (m *Memory) bit(bm []uint64, f uint64) bool { return bm[f/64]&(1<<(f%64)) != 0 }

// available reports whether frame f can be handed out.
func (m *Memory) available(f uint64) bool {
	return f < m.frames &&
		!m.bit(m.alloc, f) && !m.bit(m.offline, f) && !m.bit(m.bad, f)
}

// IsAllocated reports whether the frame is currently in use.
func (m *Memory) IsAllocated(f uint64) bool {
	return f < m.frames && m.bit(m.alloc, f)
}

// IsOffline reports whether the frame is offline (gap or unplugged).
func (m *Memory) IsOffline(f uint64) bool {
	return f < m.frames && m.bit(m.offline, f)
}

// IsBad reports whether the frame is on the bad-page list.
func (m *Memory) IsBad(f uint64) bool {
	return f < m.frames && m.bit(m.bad, f)
}

// AllocFrame allocates the lowest-numbered available frame.
func (m *Memory) AllocFrame() (uint64, error) {
	for w := m.hint; w < len(m.alloc); w++ {
		avail := ^(m.alloc[w] | m.offline[w] | m.bad[w])
		if avail == 0 {
			if w == m.hint {
				m.hint = w + 1
			}
			continue
		}
		f := uint64(w)*64 + uint64(bits.TrailingZeros64(avail))
		if f >= m.frames {
			break
		}
		m.setBit(m.alloc, f)
		m.numAlloc++
		m.stamp(f)
		return f, nil
	}
	return 0, ErrOutOfMemory
}

// lowerHint moves the search hint down after a frame becomes available.
func (m *Memory) lowerHint(f uint64) {
	if w := int(f / 64); w < m.hint {
		m.hint = w
	}
}

// AllocFrameAt allocates the specific frame, failing if unavailable.
func (m *Memory) AllocFrameAt(f uint64) error {
	if f >= m.frames {
		return ErrOutOfRange
	}
	if m.bit(m.alloc, f) {
		return ErrDoubleAlloc
	}
	if m.bit(m.bad, f) {
		return ErrBadFrame
	}
	if m.bit(m.offline, f) {
		return ErrGapViolation
	}
	m.setBit(m.alloc, f)
	m.numAlloc++
	m.stamp(f)
	return nil
}

// FreeFrame releases an allocated frame.
func (m *Memory) FreeFrame(f uint64) error {
	if f >= m.frames {
		return ErrOutOfRange
	}
	if !m.bit(m.alloc, f) {
		return ErrNotAllocated
	}
	m.unstamp(f)
	m.clrBit(m.alloc, f)
	m.numAlloc--
	m.lowerHint(f)
	return nil
}

// AllocRun allocates the lowest-numbered run of available frames, at
// most max frames long, and returns its first frame and length (>= 1).
// For data frames it is equivalent to n calls of AllocContiguous(1, 1)
// — a single-frame allocation always takes the lowest available frame,
// and every frame of the run is by construction lower than any frame a
// later call could pick — but it walks the bitmaps once instead of once
// per frame. It is not equivalent when the per-frame loop would
// allocate other frames between its calls, such as the page-table pages
// a Map allocates: those would have taken frames inside the run.
// pagetable.(*Table).Back4K uses it where no table page falls between.
func (m *Memory) AllocRun(max uint64) (uint64, uint64, error) {
	if max == 0 {
		return 0, 0, ErrNoContiguous
	}
	for m.hint < len(m.alloc) && ^(m.alloc[m.hint]|m.offline[m.hint]|m.bad[m.hint]) == 0 {
		m.hint++
	}
	start := uint64(m.hint) * 64
	for start < m.frames {
		w, bit := start/64, start%64
		avail := ^(m.alloc[w] | m.offline[w] | m.bad[w]) >> bit
		if avail == 0 {
			start = (w + 1) * 64
			continue
		}
		start += uint64(bits.TrailingZeros64(avail))
		run := m.freeRunLen(start, max)
		m.markAllocated(start, run)
		m.numAlloc += run
		m.stampRange(start, run)
		return start, run, nil
	}
	return 0, 0, ErrNoContiguous
}

// AllocContiguous allocates n contiguous available frames whose first
// frame is aligned to alignFrames (a power of two, >= 1). It returns the
// first frame number. This is the primitive behind boot-time segment
// reservation (§VI.A) and hotplugged region backing.
func (m *Memory) AllocContiguous(n, alignFrames uint64) (uint64, error) {
	if n == 0 {
		return 0, ErrNoContiguous
	}
	if alignFrames == 0 {
		alignFrames = 1
	}
	// Advance the hint past fully-unavailable words first. Repeated
	// reservations (chunked VM backing fills memory front to back) then
	// stay O(words touched) amortized instead of rescanning the dense
	// allocated prefix on every call. Only whole words with no available
	// frame are skipped, so no candidate start frame is ever passed over.
	for m.hint < len(m.alloc) && ^(m.alloc[m.hint]|m.offline[m.hint]|m.bad[m.hint]) == 0 {
		m.hint++
	}
	start := uint64(m.hint) * 64
	for {
		start = addr.AlignUp(start, alignFrames)
		if start+n > m.frames {
			break
		}
		// Jump word-wise to the next available frame before probing a
		// run: a partially-allocated word would otherwise be crawled one
		// frame per freeRunLen call, which dominates dense front-to-back
		// fills like chunked VM backing (one call per 4K chunk).
		w, bit := start/64, start%64
		avail := ^(m.alloc[w] | m.offline[w] | m.bad[w]) >> bit
		if avail == 0 {
			start = (w + 1) * 64
			continue
		}
		if tz := uint64(bits.TrailingZeros64(avail)); tz != 0 {
			start += tz
			continue // realign before probing the run
		}
		run := m.freeRunLen(start, n)
		if run >= n {
			m.markAllocated(start, n)
			m.numAlloc += n
			m.stampRange(start, n)
			return start, nil
		}
		// Skip past the blocking frame.
		start += run + 1
	}
	return 0, ErrNoContiguous
}

// markAllocated sets [start, start+n) in the alloc bitmap word-wise.
func (m *Memory) markAllocated(start, n uint64) {
	for f := start; f < start+n; {
		w, bit := f/64, f%64
		span := 64 - bit
		if rem := start + n - f; rem < span {
			span = rem
		}
		m.alloc[w] |= (^uint64(0) >> (64 - span)) << bit
		f += span
	}
}

// freeRunLen counts available frames starting at start, up to max. It
// scans word-wise: a run of available frames shows up as consecutive set
// bits in the complement of alloc|offline|bad.
func (m *Memory) freeRunLen(start, max uint64) uint64 {
	if start >= m.frames {
		return 0
	}
	if lim := m.frames - start; max > lim {
		max = lim
	}
	var run uint64
	for run < max {
		f := start + run
		w, bit := f/64, f%64
		avail := ^(m.alloc[w] | m.offline[w] | m.bad[w]) >> bit
		// Consecutive available frames from f = trailing one-bits of avail.
		c := uint64(bits.TrailingZeros64(^avail))
		if c == 0 {
			break
		}
		run += c
		if c < 64-bit {
			break
		}
	}
	if run > max {
		run = max
	}
	return run
}

// LargestFreeRun returns the start and length (in frames) of the longest
// run of available frames.
func (m *Memory) LargestFreeRun() (start, length uint64) {
	var bestStart, bestLen, curStart, curLen uint64
	inRun := false
	for f := uint64(0); f < m.frames; f++ {
		if m.available(f) {
			if !inRun {
				curStart, curLen, inRun = f, 0, true
			}
			curLen++
			if curLen > bestLen {
				bestStart, bestLen = curStart, curLen
			}
		} else {
			inRun = false
		}
	}
	return bestStart, bestLen
}

// Reserve marks the byte range as allocated in one shot, for boot-time
// reservation. The range must be 4K-aligned and fully available.
func (m *Memory) Reserve(r addr.Range) error {
	if !addr.IsAligned(r.Start, addr.Page4K) || !addr.IsAligned(r.Size, addr.Page4K) {
		return fmt.Errorf("physmem: reserve %v: not 4K aligned", r)
	}
	first := r.Start >> frameShift
	n := r.Size >> frameShift
	if first+n > m.frames {
		return ErrOutOfRange
	}
	for f := first; f < first+n; f++ {
		if !m.available(f) {
			return fmt.Errorf("physmem: reserve %v: frame %#x unavailable", r, f)
		}
	}
	for f := first; f < first+n; f++ {
		m.setBit(m.alloc, f)
	}
	m.numAlloc += n
	m.stampRange(first, n)
	return nil
}

// MarkBad places a frame on the bad-page list (§V). An allocated frame
// may be marked bad — that is precisely the situation the escape filter
// handles — so this never fails for in-range frames.
func (m *Memory) MarkBad(f uint64) error {
	if f >= m.frames {
		return ErrOutOfRange
	}
	m.setBit(m.bad, f)
	return nil
}

// BadFrames returns all frames on the bad-page list, ascending.
func (m *Memory) BadFrames() []uint64 {
	var out []uint64
	for f := uint64(0); f < m.frames; f++ {
		if m.bit(m.bad, f) {
			out = append(out, f)
		}
	}
	return out
}

// Offline takes the byte range out of service (memory hot-unplug). The
// frames must not be allocated. Used for I/O-gap reclamation (§IV).
func (m *Memory) Offline(r addr.Range) error {
	first, n, err := m.frameSpan(r)
	if err != nil {
		return err
	}
	for f := first; f < first+n; f++ {
		if m.bit(m.alloc, f) {
			return fmt.Errorf("physmem: offline %v: frame %#x allocated", r, f)
		}
	}
	for f := first; f < first+n; f++ {
		if !m.bit(m.offline, f) {
			m.setBit(m.offline, f)
			m.numOff++
		}
	}
	return nil
}

// Online brings an offline byte range into service (memory hotplug add).
func (m *Memory) Online(r addr.Range) error {
	first, n, err := m.frameSpan(r)
	if err != nil {
		return err
	}
	for f := first; f < first+n; f++ {
		if !m.bit(m.offline, f) {
			return ErrAlreadyOnline
		}
	}
	for f := first; f < first+n; f++ {
		m.clrBit(m.offline, f)
		m.numOff--
	}
	m.lowerHint(first)
	return nil
}

func (m *Memory) frameSpan(r addr.Range) (first, n uint64, err error) {
	if !addr.IsAligned(r.Start, addr.Page4K) || !addr.IsAligned(r.Size, addr.Page4K) {
		return 0, 0, fmt.Errorf("physmem: range %v not 4K aligned", r)
	}
	first = r.Start >> frameShift
	n = r.Size >> frameShift
	if first+n > m.frames {
		return 0, 0, ErrOutOfRange
	}
	return first, n, nil
}

// Grow extends the physical address space by size bytes of offline
// memory and returns the new range. The caller brings it online with
// Online — this models extending a KVM memory slot (§VI.C).
func (m *Memory) Grow(size uint64) (addr.Range, error) {
	if size == 0 || size%addr.PageSize4K != 0 {
		return addr.Range{}, fmt.Errorf("physmem: grow size %#x not a multiple of 4K", size)
	}
	r := addr.Range{Start: m.frames << frameShift, Size: size}
	n := size >> frameShift
	m.frames += n
	words := (m.frames + 63) / 64
	for uint64(len(m.alloc)) < words {
		m.alloc = append(m.alloc, 0)
		m.offline = append(m.offline, 0)
		m.bad = append(m.bad, 0)
	}
	if m.owners != nil {
		m.owners = append(m.owners, make([]OwnerID, n)...)
	}
	first := r.Start >> frameShift
	for f := first; f < first+n; f++ {
		m.setBit(m.offline, f)
		m.numOff++
	}
	return r, nil
}

// FragmentRandomly allocates approximately frac of the currently free
// frames at random positions, simulating a long-running system whose
// free memory is scattered. Returns the frames taken, so tests can free
// them again. Deterministic under the caller-provided next function
// (e.g. trace.Rand.Uint64n).
func (m *Memory) FragmentRandomly(frac float64, next func(n uint64) uint64) []uint64 {
	if frac <= 0 {
		return nil
	}
	var free []uint64
	for f := uint64(0); f < m.frames; f++ {
		if m.available(f) {
			free = append(free, f)
		}
	}
	take := uint64(float64(len(free)) * frac)
	var taken []uint64
	for i := uint64(0); i < take; i++ {
		j := next(uint64(len(free)))
		f := free[j]
		free[j] = free[len(free)-1]
		free = free[:len(free)-1]
		m.setBit(m.alloc, f)
		m.numAlloc++
		m.stamp(f)
		taken = append(taken, f)
	}
	return taken
}

// Compact relocates allocated frames toward the low end of memory until
// the largest free run cannot be improved, modeling Linux's memory
// compaction daemon. It returns the moves performed; the caller must
// repair any translations that referenced the old frames.
//
// Frames marked bad or offline are never used as destinations and are
// never moved (a bad frame's data is gone; an offline frame has none).
func (m *Memory) Compact() []Move {
	m.moves = m.moves[:0]
	// Two-pointer sweep: dst scans for available holes from the bottom,
	// src scans for allocated frames from the top.
	dst, src := uint64(0), m.frames
	for {
		for dst < m.frames && !m.available(dst) {
			dst++
		}
		for src > 0 && !m.bit(m.alloc, src-1) {
			src--
		}
		if src == 0 || dst >= src-1 {
			break
		}
		src--
		// Move frame src -> dst.
		m.clrBit(m.alloc, src)
		m.setBit(m.alloc, dst)
		if m.owners != nil { // ownership travels with the data
			m.owners[dst] = m.owners[src]
			m.owners[src] = OwnerNone
		}
		m.moves = append(m.moves, Move{Old: src, New: dst})
	}
	return m.moves
}

// FragReport summarizes free-space fragmentation at a point in time.
type FragReport struct {
	FreeFrames  uint64  // frames available for allocation
	FreeRuns    uint64  // maximal runs of available frames
	LargestRun  uint64  // length of the longest run, in frames
	FragIndex   float64 // 1 - LargestRun/FreeFrames (0 = one run, ->1 = shattered)
	MeanRunLen  float64 // FreeFrames / FreeRuns
	TotalFrames uint64  // address-space span, gap included
}

// FragStats scans the bitmaps and reports free-space fragmentation.
// This is the host fragmentation curve's raw material: as consolidation
// density rises, FreeFrames shrinks and FragIndex climbs toward 1,
// and direct-segment creation fails once LargestRun drops below the
// segment size.
func (m *Memory) FragStats() FragReport {
	var r FragReport
	r.TotalFrames = m.frames
	var curLen uint64
	for f := uint64(0); f < m.frames; f++ {
		if m.available(f) {
			curLen++
			continue
		}
		if curLen > 0 {
			r.FreeRuns++
			r.FreeFrames += curLen
			if curLen > r.LargestRun {
				r.LargestRun = curLen
			}
			curLen = 0
		}
	}
	if curLen > 0 {
		r.FreeRuns++
		r.FreeFrames += curLen
		if curLen > r.LargestRun {
			r.LargestRun = curLen
		}
	}
	if r.FreeFrames > 0 {
		r.FragIndex = 1 - float64(r.LargestRun)/float64(r.FreeFrames)
		r.MeanRunLen = float64(r.FreeFrames) / float64(r.FreeRuns)
	}
	return r
}

// ProbeContiguous counts how many additional n-frame aligned contiguous
// allocations would currently succeed, up to max probes (0 = unlimited).
// It is non-perturbing: the probes are trial allocations that are all
// freed before returning, and because allocation is deterministic
// lowest-fit, the bitmap and the hint invariant ("no available frame
// below word hint") are exactly restored. The host study uses it to
// measure how many more direct segments the host could still create.
func (m *Memory) ProbeContiguous(n, alignFrames, max uint64) uint64 {
	if n == 0 {
		return 0
	}
	var starts []uint64
	for max == 0 || uint64(len(starts)) < max {
		start, err := m.AllocContiguous(n, alignFrames)
		if err != nil {
			break
		}
		starts = append(starts, start)
	}
	for _, start := range starts {
		for f := start; f < start+n; f++ {
			m.unstamp(f)
			m.clrBit(m.alloc, f)
		}
		m.numAlloc -= n
		m.lowerHint(start)
	}
	return uint64(len(starts))
}

// FrameToAddr converts a frame number to its byte address.
func FrameToAddr(f uint64) uint64 { return f << frameShift }

// AddrToFrame converts a byte address to its frame number.
func AddrToFrame(a uint64) uint64 { return a >> frameShift }
