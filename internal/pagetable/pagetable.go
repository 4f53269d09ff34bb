// Package pagetable implements the x86-64 4-level radix page table
// (PML4 → PDPT → PD → PT) used for both dimensions of translation:
// per-process guest page tables (gVA→gPA) and per-VM nested page tables
// (gPA→hPA).
//
// Table pages are allocated from the owning physical memory, so every
// page-table node has a real physical address. That matters: in a 2D
// walk, each reference the walker makes to a guest page table is itself
// a guest physical address that must be translated through the nested
// dimension — the "multiplication" of Figure 2.
package pagetable

import (
	"errors"
	"fmt"

	"vdirect/internal/addr"
)

// Allocator supplies frames for page-table pages; *physmem.Memory
// satisfies it.
type Allocator interface {
	AllocFrame() (uint64, error)
	FreeFrame(f uint64) error
}

// Errors returned by mapping operations.
var (
	ErrMisaligned = errors.New("pagetable: address not aligned to page size")
	ErrOverlap    = errors.New("pagetable: mapping overlaps an existing mapping")
	ErrNotMapped  = errors.New("pagetable: address not mapped")
	ErrSizeClash  = errors.New("pagetable: unmap size differs from mapping size")
)

// Each page-table entry is one packed uint64, laid out like a real PTE:
// flag bits low, frame high. The accessed and dirty bits mirror the
// x86-64 A/D bits: the walker sets accessed on every traversed entry;
// software (or a write-aware caller) sets dirty on leaves. For a leaf,
// the frame field is the mapped physical page's base address shifted
// right by 12 (so 2M leaves hold a 512-aligned value); for an interior
// entry, it is the frame of the next-level table.
//
// Packing matters for simulator speed: a node's 512 words are exactly a
// 4KB table page, so the walker's read-modify-write of an entry touches
// one host cache line where the old 24-byte struct layout touched up to
// two — and page-table-heavy setup clears a third of the memory.
const (
	peP     = 1 << 0 // present
	peL     = 1 << 1 // leaf
	peA     = 1 << 2 // accessed
	peD     = 1 << 3 // dirty
	peShift = 4      // frame field, bits 63:4
)

type node struct {
	frame uint64 // physical frame holding this table page
	used  int    // number of present entries, for table reclamation
	words [addr.EntriesPerTable]uint64
	// kids holds child-node pointers for interior entries, allocated on
	// the first child: leaf-only tables (the vast majority) carry none.
	kids []*node
}

// setChild installs an interior entry pointing at child.
func (n *node) setChild(idx uint, child *node) {
	if n.kids == nil {
		n.kids = make([]*node, addr.EntriesPerTable)
	}
	n.words[idx] = peP | child.frame<<peShift
	n.kids[idx] = child
	n.used++
}

// wcEntry is one walk-cache slot: a host-side shortcut for WalkPath,
// keyed by a 2M-aligned va prefix whose path down to a PT (level-3)
// node has been descended before. Because the three interior PTE
// addresses are a pure function of the prefix, a cached walk copies
// them verbatim and reads only the PT entry — one load instead of four
// dependent chases. This is simulator-host state only: the modeled
// references, accessed bits on leaves, translations, and costs are
// identical either way.
type wcEntry struct {
	tag  uint64                  // va>>21, tagged valid by gen != 0 match
	gen  uint64                  // table generation the entry was filled under
	pt   *node                   // the PT node covering the prefix
	refs [addr.Levels - 1]uint64 // interior PTE addresses, levels 0..2
}

const (
	wcSlots = 256 // direct-mapped; covers 512MB of 4K-mapped va
	wcMask  = wcSlots - 1
)

// Table is one 4-level page table rooted at a CR3-like frame.
type Table struct {
	alloc      Allocator
	root       *node
	tablePages uint64 // page-table pages currently allocated
	mappings   uint64 // live leaf mappings

	// gen invalidates the walk cache wholesale: operations that can free
	// a table page (Unmap, Destroy) bump it, since a cached
	// *node must never outlive its page. Map and Remap only add or edit
	// entry words that cached walks re-read live, so they leave gen
	// alone.
	gen uint64
	wc  [wcSlots]wcEntry
}

// New creates an empty table, allocating its root page.
func New(alloc Allocator) (*Table, error) {
	// gen starts at 1 so the zero-valued walk-cache entries never match.
	t := &Table{alloc: alloc, gen: 1}
	root, err := t.newNode()
	if err != nil {
		return nil, err
	}
	t.root = root
	return t, nil
}

func (t *Table) newNode() (*node, error) {
	f, err := t.alloc.AllocFrame()
	if err != nil {
		return nil, fmt.Errorf("pagetable: allocating table page: %w", err)
	}
	t.tablePages++
	return &node{frame: f}, nil
}

// Root returns the physical frame of the root (CR3 equivalent).
func (t *Table) Root() uint64 { return t.root.frame }

// TablePages returns the number of physical pages the table occupies.
func (t *Table) TablePages() uint64 { return t.tablePages }

// Mappings returns the number of live leaf mappings.
func (t *Table) Mappings() uint64 { return t.mappings }

// leafLevel returns the level at which a page of size s terminates.
// Its panic is an invariant, not an input check: every PageSize a
// caller can hold is one of the three constants (addr.PageSize values
// come from the simulator's own code, and no flag or file reaches a
// page size).
func leafLevel(s addr.PageSize) int {
	switch s {
	case addr.Page4K:
		return addr.LvlPT
	case addr.Page2M:
		return addr.LvlPD
	case addr.Page1G:
		return addr.LvlPDPT
	}
	panic("pagetable: invalid page size")
}

// Map installs a translation va → pa of the given page size. Both
// addresses must be size-aligned. Mapping over an existing translation
// (of any size) fails with ErrOverlap.
func (t *Table) Map(va, pa uint64, s addr.PageSize) error {
	if !addr.IsAligned(va, s) || !addr.IsAligned(pa, s) {
		return ErrMisaligned
	}
	target := leafLevel(s)
	n := t.root
	for lvl := 0; lvl < target; lvl++ {
		idx := addr.Index(va, lvl)
		w := n.words[idx]
		if w&(peP|peL) == peP|peL {
			return ErrOverlap // a larger page already covers this va
		}
		if w&peP == 0 {
			child, err := t.newNode()
			if err != nil {
				return err
			}
			n.setChild(idx, child)
		}
		n = n.kids[idx]
	}
	idx := addr.Index(va, target)
	if n.words[idx]&peP != 0 {
		return ErrOverlap // smaller or equal mapping already present
	}
	n.words[idx] = peP | peL | (pa>>addr.PageShift4K)<<peShift
	n.used++
	t.mappings++
	return nil
}

// MapRange4K installs n consecutive 4K translations va+i·4K → pa+i·4K,
// equivalent to n Map calls in ascending order — same overlap checks,
// same table-page allocation order — but descending once per 2M span
// instead of once per page. It returns how many pages were mapped
// before any error, so callers can account for (or roll back) a
// partially installed run.
func (t *Table) MapRange4K(va, pa uint64, n uint64) (uint64, error) {
	if !addr.IsAligned(va, addr.Page4K) || !addr.IsAligned(pa, addr.Page4K) {
		return 0, ErrMisaligned
	}
	var done uint64
	for done < n {
		// Descend to the PT covering va, allocating interior tables
		// exactly as Map would.
		nd := t.root
		for lvl := 0; lvl < addr.LvlPT; lvl++ {
			idx := addr.Index(va, lvl)
			w := nd.words[idx]
			if w&(peP|peL) == peP|peL {
				return done, ErrOverlap
			}
			if w&peP == 0 {
				child, err := t.newNode()
				if err != nil {
					return done, err
				}
				nd.setChild(idx, child)
			}
			nd = nd.kids[idx]
		}
		// Fill leaf entries until the PT ends or the run is exhausted.
		idx := addr.Index(va, addr.LvlPT)
		for idx < addr.EntriesPerTable && done < n {
			if nd.words[idx]&peP != 0 {
				return done, ErrOverlap
			}
			nd.words[idx] = peP | peL | (pa>>addr.PageShift4K)<<peShift
			nd.used++
			t.mappings++
			idx++
			done++
			va += addr.PageSize4K
			pa += addr.PageSize4K
		}
	}
	return done, nil
}

// RunAllocator supplies Back4K's data frames in lowest-first runs;
// *physmem.Memory satisfies it.
type RunAllocator interface {
	AllocRun(max uint64) (first, n uint64, err error)
	FreeFrame(f uint64) error
}

// Back4K is the one 4K bulk-backing routine. It maps n unmapped 4K
// pages from va onto frames taken lowest-first from mem, the allocator
// t's own table pages come from, and places every data frame and every
// table page exactly where n ascending AllocContiguous(1, 1) + Map
// calls would. An AllocRun run equals that frame sequence only while no
// table page is allocated in between, so each 2M window's first page is
// mapped alone: its descent allocates the window's missing table pages
// right after the page's own frame, as the per-page loop did, and the
// rest of the window then goes in runs through MapRange4K, which needs
// no new table page. placed, if non-nil, sees each installed run as
// (va, pa, bytes). Back4K returns how many pages it mapped; frames it
// took but did not map are freed.
func (t *Table) Back4K(va, n uint64, mem RunAllocator, placed func(va, pa, size uint64)) (uint64, error) {
	var done uint64
	for done < n {
		window := min(n-done, (addr.PageSize2M-va%addr.PageSize2M)>>addr.PageShift4K)
		for want := uint64(1); window > 0; want = window {
			first, got, err := mem.AllocRun(want)
			if err != nil {
				return done, err
			}
			pa := first << addr.PageShift4K
			mapped, err := t.MapRange4K(va, pa, got)
			if placed != nil {
				placed(va, pa, mapped<<addr.PageShift4K)
			}
			done += mapped
			window -= mapped
			va += mapped << addr.PageShift4K
			if err != nil {
				for f := first + mapped; f < first+got; f++ {
					mem.FreeFrame(f)
				}
				return done, err
			}
		}
	}
	return done, nil
}

// Unmap removes the translation for va, which must be mapped with
// exactly page size s. Empty intermediate tables are reclaimed.
func (t *Table) Unmap(va uint64, s addr.PageSize) error {
	if !addr.IsAligned(va, s) {
		return ErrMisaligned
	}
	target := leafLevel(s)
	var path [addr.Levels]*node
	n := t.root
	for lvl := 0; lvl < target; lvl++ {
		path[lvl] = n
		idx := addr.Index(va, lvl)
		w := n.words[idx]
		if w&peP == 0 {
			return ErrNotMapped
		}
		if w&peL != 0 {
			return ErrSizeClash
		}
		n = n.kids[idx]
	}
	path[target] = n
	idx := addr.Index(va, target)
	w := n.words[idx]
	if w&peP == 0 {
		return ErrNotMapped
	}
	if w&peL == 0 {
		return ErrSizeClash
	}
	n.words[idx] = 0
	n.used--
	t.mappings--
	// Reclaim empty tables bottom-up (never the root).
	for lvl := target; lvl > 0; lvl-- {
		cur := path[lvl]
		if cur.used > 0 {
			break
		}
		parent := path[lvl-1]
		pidx := addr.Index(va, lvl-1)
		parent.words[pidx] = 0
		parent.kids[pidx] = nil
		parent.used--
		if err := t.alloc.FreeFrame(cur.frame); err != nil {
			return fmt.Errorf("pagetable: reclaiming table page: %w", err)
		}
		t.tablePages--
		t.gen++ // a table page was freed; cached node pointers may dangle
	}
	return nil
}

// Ref is one page-walk memory reference: the physical address of the
// PTE the walker read, and the level it belongs to.
type Ref struct {
	Addr  uint64
	Level int
}

// Walk is WalkPath with the path appended to refs as (address, level)
// pairs: it returns the physical address, the mapping's page size, and
// refs. A translation failure returns ok=false with the references
// performed before the walk aborted — real walkers touch memory before
// faulting.
func (t *Table) Walk(va uint64, refs []Ref) (pa uint64, s addr.PageSize, out []Ref, ok bool) {
	var path [addr.Levels]uint64
	pa, s, n, ok := t.WalkPath(va, &path)
	for lvl, a := range path[:n] {
		refs = append(refs, Ref{Addr: a, Level: lvl})
	}
	return pa, s, refs, ok
}

// WalkPath is the page walk. It translates va, setting the accessed bit
// on every entry it reads, and writes the walk's fixed path into the
// caller's array, which it does not retain: path[lvl] is the address of
// the PTE read at level lvl, and n counts the levels read, through the
// leaf or the faulting (not-present) level. A paging-structure-cache
// skip is the caller's to apply, as
// path[min(skip, n-1):n]: the levels a cache holds are not charged, but
// the walk's final reference always is.
//
// Its two panics are invariants that no input reaches: Map installs
// leaves only at the PDPT, PD and PT levels (leafLevel), so no PML4
// entry is a leaf, and a PT entry is always a leaf, so the descent ends
// by level LvlPT.
func (t *Table) WalkPath(va uint64, path *[addr.Levels]uint64) (pa uint64, s addr.PageSize, n int, ok bool) {
	// Walk-cache fast path: a previous walk of this 2M prefix reached a
	// PT node. Its interior PTE addresses are a pure function of the
	// prefix, so only the PT entry itself is read live. The entry word
	// is re-read on every walk, so Map/Remap edits are observed; only
	// page-freeing operations invalidate (via gen).
	e := &t.wc[va>>21&wcMask]
	if e.tag == va>>21 && e.gen == t.gen {
		nd := e.pt
		idx := va >> addr.PageShift4K & (addr.EntriesPerTable - 1)
		*(*[addr.Levels - 1]uint64)(path[:]) = e.refs // three stores, no memmove call
		path[addr.LvlPT] = nd.frame<<addr.PageShift4K + idx*8
		w := nd.words[idx]
		if w&peP == 0 {
			return 0, 0, addr.Levels, false
		}
		if w&peA == 0 {
			nd.words[idx] = w | peA
		}
		return w>>peShift<<addr.PageShift4K + va&(addr.PageSize4K-1),
			addr.Page4K, addr.Levels, true
	}

	nd := t.root
	// frame tracks the current table page without re-reading the node
	// header: after the root it comes from the parent's entry word, so
	// each level touches exactly one host cache line of table state.
	frame := nd.frame
	shift := uint(addr.PageShift4K + 9*(addr.Levels-1))
	for lvl := 0; lvl < addr.Levels; lvl++ {
		idx := va >> shift & (addr.EntriesPerTable - 1)
		shift -= 9
		path[lvl] = frame<<addr.PageShift4K + idx*8
		w := nd.words[idx]
		if w&peP == 0 {
			return 0, 0, lvl + 1, false
		}
		if w&peA == 0 {
			// Store only when the bit actually flips: re-walked entries
			// (the common case) then leave the node line clean instead of
			// forcing a write-back per walk.
			nd.words[idx] = w | peA
		}
		if w&peL != 0 {
			switch lvl {
			case addr.LvlPDPT:
				s = addr.Page1G
			case addr.LvlPD:
				s = addr.Page2M
			case addr.LvlPT:
				s = addr.Page4K
				// Remember the path for subsequent walks in this 2M span.
				// Only 4K-leaf paths are cached: they are the only ones
				// whose interior shape the fast path can assume.
				*e = wcEntry{tag: va >> 21, gen: t.gen, pt: nd}
				e.refs = [addr.Levels - 1]uint64(path[:])
			default:
				panic("pagetable: leaf at PML4 level")
			}
			return w>>peShift<<addr.PageShift4K + addr.Offset(va, s), s, lvl + 1, true
		}
		frame = w >> peShift
		nd = nd.kids[idx]
	}
	panic("pagetable: walk fell off the tree")
}

// Translate is Walk without reference recording, for software paths
// (fault handlers, page sharing scans) that don't model hardware cost.
func (t *Table) Translate(va uint64) (pa uint64, s addr.PageSize, ok bool) {
	n := t.root
	for lvl := 0; lvl < addr.Levels; lvl++ {
		idx := addr.Index(va, lvl)
		w := n.words[idx]
		if w&peP == 0 {
			return 0, 0, false
		}
		if w&peL != 0 {
			switch lvl {
			case addr.LvlPDPT:
				s = addr.Page1G
			case addr.LvlPD:
				s = addr.Page2M
			default:
				s = addr.Page4K
			}
			return w>>peShift<<addr.PageShift4K + addr.Offset(va, s), s, true
		}
		n = n.kids[idx]
	}
	return 0, 0, false
}

// Remap changes the physical target of an existing leaf mapping without
// altering its size — how compaction move notifications and escape-
// filter remapping are applied.
func (t *Table) Remap(va, newPA uint64) error {
	n := t.root
	for lvl := 0; lvl < addr.Levels; lvl++ {
		idx := addr.Index(va, lvl)
		w := n.words[idx]
		if w&peP == 0 {
			return ErrNotMapped
		}
		if w&peL != 0 {
			var s addr.PageSize
			switch lvl {
			case addr.LvlPDPT:
				s = addr.Page1G
			case addr.LvlPD:
				s = addr.Page2M
			default:
				s = addr.Page4K
			}
			if !addr.IsAligned(newPA, s) {
				return ErrMisaligned
			}
			n.words[idx] = w&(peP|peL|peA|peD) | (newPA>>addr.PageShift4K)<<peShift
			return nil
		}
		n = n.kids[idx]
	}
	return ErrNotMapped
}

// MarkDirty sets the dirty bit on the leaf mapping covering va, as a
// write through the translation would. Returns ErrNotMapped when no
// mapping covers va.
func (t *Table) MarkDirty(va uint64) error {
	n := t.root
	for lvl := 0; lvl < addr.Levels; lvl++ {
		idx := addr.Index(va, lvl)
		w := n.words[idx]
		if w&peP == 0 {
			return ErrNotMapped
		}
		if w&peL != 0 {
			n.words[idx] = w | peD | peA
			return nil
		}
		n = n.kids[idx]
	}
	return ErrNotMapped
}

// HarvestDirty calls fn for every dirty leaf mapping and clears its
// dirty bit — the scan a pre-copy live migration performs per pass.
// It returns the number of dirty pages found.
func (t *Table) HarvestDirty(fn func(va uint64, s addr.PageSize)) int {
	return t.harvest(t.root, 0, 0, fn)
}

func (t *Table) harvest(n *node, lvl int, vaBase uint64, fn func(va uint64, s addr.PageSize)) int {
	shift := uint(addr.PageShift4K + 9*(addr.Levels-1-lvl))
	found := 0
	for i := 0; i < addr.EntriesPerTable; i++ {
		w := n.words[i]
		if w&peP == 0 {
			continue
		}
		va := vaBase | uint64(i)<<shift
		if w&peL != 0 {
			if w&peD != 0 {
				n.words[i] = w &^ peD
				var s addr.PageSize
				switch lvl {
				case addr.LvlPDPT:
					s = addr.Page1G
				case addr.LvlPD:
					s = addr.Page2M
				default:
					s = addr.Page4K
				}
				fn(va, s)
				found++
			}
			continue
		}
		found += t.harvest(n.kids[i], lvl+1, va, fn)
	}
	return found
}

// Accessed reports whether the leaf covering va has its accessed bit
// set (and clears it when clear is true), supporting working-set
// sampling.
func (t *Table) Accessed(va uint64, clear bool) (bool, error) {
	n := t.root
	for lvl := 0; lvl < addr.Levels; lvl++ {
		idx := addr.Index(va, lvl)
		w := n.words[idx]
		if w&peP == 0 {
			return false, ErrNotMapped
		}
		if w&peL != 0 {
			was := w&peA != 0
			if clear {
				n.words[idx] = w &^ peA
			}
			return was, nil
		}
		n = n.kids[idx]
	}
	return false, ErrNotMapped
}

// VisitLeaves calls fn for every leaf mapping in ascending va order.
// Returning false from fn stops the visit.
func (t *Table) VisitLeaves(fn func(va, pa uint64, s addr.PageSize) bool) {
	t.visit(t.root, 0, 0, fn)
}

func (t *Table) visit(n *node, lvl int, vaBase uint64, fn func(va, pa uint64, s addr.PageSize) bool) bool {
	shift := uint(addr.PageShift4K + 9*(addr.Levels-1-lvl))
	for i := 0; i < addr.EntriesPerTable; i++ {
		w := n.words[i]
		if w&peP == 0 {
			continue
		}
		va := vaBase | uint64(i)<<shift
		if w&peL != 0 {
			var s addr.PageSize
			switch lvl {
			case addr.LvlPDPT:
				s = addr.Page1G
			case addr.LvlPD:
				s = addr.Page2M
			default:
				s = addr.Page4K
			}
			if !fn(va, w>>peShift<<addr.PageShift4K, s) {
				return false
			}
			continue
		}
		if !t.visit(n.kids[i], lvl+1, va, fn) {
			return false
		}
	}
	return true
}

// Destroy releases every page-table page back to the allocator. The
// table must not be used afterwards.
func (t *Table) Destroy() error {
	if err := t.destroy(t.root, 0); err != nil {
		return err
	}
	t.root = nil
	t.gen++
	return nil
}

func (t *Table) destroy(n *node, lvl int) error {
	for i, w := range n.words {
		if w&(peP|peL) == peP {
			if err := t.destroy(n.kids[i], lvl+1); err != nil {
				return err
			}
		}
	}
	if err := t.alloc.FreeFrame(n.frame); err != nil {
		return err
	}
	t.tablePages--
	return nil
}
