// Package escape implements the escape filter (§V): a small hardware
// Bloom filter that lets individual pages inside a direct segment
// "escape" segment translation and fall back to conventional paging.
// The OS/VMM uses it to remap faulty physical pages (and, optionally,
// guard pages) without giving up the segment.
//
// The design follows the paper: a 256-bit parallel Bloom filter with
// four H3 hash functions (per Sanchez et al., "Implementing Signatures
// for Transactional Memory"). "Parallel" means partitioned: the 256
// bits are split into four 64-bit banks and each hash function indexes
// its own bank, so one probe reads all four banks concurrently.
//
// False positives are benign for correctness — a falsely-escaped page
// just takes the paging path, so the VMM must install PTEs for filter
// hits whether true or false (§V) — but they cost performance, which is
// exactly what Figure 13 quantifies.
//
// An empty filter answers a probe without hashing. That is the filter
// of every Dual Direct cell without escaped pages, so its 0D path pays
// one compare per dimension rather than an H3 hash.
package escape

import (
	"math/bits"

	"vdirect/internal/trace"
)

// Geometry of the paper's filter.
const (
	FilterBits = 256
	NumHashes  = 4
	bankBits   = FilterBits / NumHashes // 64 bits per bank
	inputBits  = 40                     // page-frame numbers up to 2^40 (4K frames of a 2^52 space)
	chunkBits  = 4                      // input bits per lookup table
	chunks     = inputBits / chunkBits  // lookup tables per hash function
)

// Filter is a partitioned Bloom filter; the paper's instance is 256
// bits with 4 H3 hash functions.
type Filter struct {
	// banks[h] holds bank h's bits, packed in uint64 words.
	banks [][]uint64
	// tab[h][k][v] is hash h's H3 contribution from input bits
	// 4k..4k+3 when they read v: the XOR of the rows those set bits
	// select. H3 is linear over GF(2), so XORing one entry per chunk
	// gives the same bank index as XORing one row per set input bit.
	tab      [][chunks][1 << chunkBits]uint16
	bankBits uint
	// inserts counts Insert calls since the last Clear. Insert and
	// Clear are the only writers of banks, so inserts == 0 exactly when
	// every bank is zero; MayContain relies on it.
	inserts int
}

// New creates the paper's 256-bit 4-hash filter; its H3 matrices derive
// deterministically from seed, so hardware instances are reproducible.
func New(seed uint64) *Filter { return NewSized(FilterBits, NumHashes, seed) }

// NewSized creates a filter of totalBits partitioned over hashes banks
// (totalBits/hashes must be a power of two), for sizing studies.
//
// A bad geometry panics: it is a programming error, not input. The only
// production caller is mmu.New, with mmu.Config.EscapeFilterBits
// (default FilterBits) over NumHashes banks, and no CLI flag or config
// parser sets that field; sizing studies set it in code.
func NewSized(totalBits, hashes int, seed uint64) *Filter {
	if hashes <= 0 || totalBits <= 0 || totalBits%hashes != 0 {
		panic("escape: bad filter geometry")
	}
	per := uint(totalBits / hashes)
	if per&(per-1) != 0 || per > 1<<16 {
		panic("escape: bank size must be a power of two <= 65536")
	}
	f := &Filter{
		banks:    make([][]uint64, hashes),
		tab:      make([][chunks][1 << chunkBits]uint16, hashes),
		bankBits: per,
	}
	words := (per + 63) / 64
	for h, rows := range h3Rows(hashes, per, seed) {
		f.banks[h] = make([]uint64, words)
		for k := range f.tab[h] {
			t := &f.tab[h][k]
			for v := 1; v < len(t); v++ {
				t[v] = t[v&(v-1)] ^ rows[chunkBits*k+bits.TrailingZeros(uint(v))]
			}
		}
	}
	return f
}

// h3Rows draws the H3 matrices: for each hash function and each input
// bit, a bank index below per. The hash of a frame is the XOR of the
// rows its set bits select; NewSized folds them into f.tab.
func h3Rows(hashes int, per uint, seed uint64) [][inputBits]uint16 {
	r := trace.NewRand(seed ^ 0xE5CA9EF117E4)
	rows := make([][inputBits]uint16, hashes)
	for i := range rows {
		for b := range rows[i] {
			rows[i][b] = uint16(r.Uint64n(uint64(per)))
		}
	}
	return rows
}

// hash computes the H3 hash for function h over the page frame number's
// low inputBits bits, one table load per 4-bit chunk. The loads are
// written out: Go 1.24 does not unroll a loop over the chunks, which
// measured 1.3–1.6× slower per probe.
func (f *Filter) hash(h int, pfn uint64) uint {
	t := &f.tab[h]
	return uint(t[0][pfn&15] ^ t[1][pfn>>4&15] ^ t[2][pfn>>8&15] ^ t[3][pfn>>12&15] ^
		t[4][pfn>>16&15] ^ t[5][pfn>>20&15] ^ t[6][pfn>>24&15] ^ t[7][pfn>>28&15] ^
		t[8][pfn>>32&15] ^ t[9][pfn>>36&15])
}

// Insert marks a page frame number as escaped.
func (f *Filter) Insert(pfn uint64) {
	for h := range f.banks {
		bit := f.hash(h, pfn)
		f.banks[h][bit/64] |= 1 << (bit % 64)
	}
	f.inserts++
}

// MayContain is the hardware probe: true means the page must take the
// paging path (true member or false positive). An empty filter answers
// without hashing.
func (f *Filter) MayContain(pfn uint64) bool {
	if f.inserts == 0 {
		return false
	}
	for h := range f.banks {
		bit := f.hash(h, pfn)
		if f.banks[h][bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}

// Clear empties the filter.
func (f *Filter) Clear() {
	for h := range f.banks {
		for w := range f.banks[h] {
			f.banks[h][w] = 0
		}
	}
	f.inserts = 0
}

// Inserts returns how many pages have been inserted.
func (f *Filter) Inserts() int { return f.inserts }

// PopCount returns the number of set bits, a coarse fullness metric.
func (f *Filter) PopCount() int {
	n := 0
	for _, bank := range f.banks {
		for _, w := range bank {
			for ; w != 0; w &= w - 1 {
				n++
			}
		}
	}
	return n
}

// FalsePositiveEstimate returns the analytic false-positive probability
// for a partitioned Bloom filter with f.inserts insertions: each bank
// has P(bit set) = 1-(1-1/bankBits)^n, and a false positive needs every
// bank to hit.
func (f *Filter) FalsePositiveEstimate() float64 {
	bankP := 1.0
	for i := 0; i < f.inserts; i++ {
		bankP *= 1 - 1.0/float64(f.bankBits)
	}
	perBank := 1 - bankP
	p := 1.0
	for range f.banks {
		p *= perBank
	}
	return p
}
