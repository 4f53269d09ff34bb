package mmu

import (
	"testing"

	"vdirect/internal/addr"
	"vdirect/internal/tlb"
)

// blockScriptMapped is how many pages a FuzzTranslateBlock environment
// maps up front; script pages at or past it fault on first touch and
// are demand-mapped by serviceFault.
const blockScriptMapped = 32

// blockLargeFirst is the first script page that the large-leaf flag
// redirects into a large guest leaf: pages 0xC0-0xDF land four to a 2M
// leaf at 0x40000000, pages 0xE0-0xFF sixteen to a 1G leaf at
// 0x80000000.
const blockLargeFirst = 0xC0

// decodeBlockScript turns fuzz bytes into a configuration, whether the
// script runs on large leaves, and a list of blocks of VAs. Byte 0
// holds flags (bit 0: coldConfig, bit 1: a 2-way 8-entry L1 4K
// structure and a 2-way 4-entry 2M one, so L1 sets evict constantly;
// bit 2: a native cell whose guest table also holds eight 2M leaves
// and two 1G leaves, so one block mixes 4K and large L1 entries); each
// following op byte is one of
//
//	op%4 == 0  one access: page byte, offset byte (16-byte grain)
//	op%4 == 1  1-8 more accesses to the last page touched
//	op%4 == 2  a run of 9-32 accesses cycling over 1-12 pages from a
//	           start page byte: once warm, a hit run longer than the
//	           8-wide batched probe
//	op%4 == 3  end of the current block
//
// Page p is the gVA 0x400000 + p<<12; p < blockScriptMapped is mapped
// at the start, the rest fault mid-block. Under bit 2, pages from
// blockLargeFirst on are in the large leaves instead and never fault.
func decodeBlockScript(data []byte) (Config, bool, [][]uint64) {
	r := &fuzzReader{data: data}
	flags := r.next()
	var cfg Config
	if flags&1 != 0 {
		cfg = coldConfig()
	}
	if flags&2 != 0 {
		cfg.L1 = tlb.Geometry{Entries4K: 8, Ways4K: 2, Entries2M: 4, Ways2M: 2, Entries1G: 4, Ways1G: 4}
	}
	large := flags&4 != 0
	va := func(page, off byte) uint64 {
		switch {
		case !large || page < blockLargeFirst:
			return 0x400000 + uint64(page)<<12 + uint64(off)<<4
		case page < blockLargeFirst+32:
			return 0x40000000 + uint64(page-blockLargeFirst)<<19 + uint64(off)<<4
		default:
			return 0x80000000 + uint64(page-blockLargeFirst-32)<<26 + uint64(off)<<4
		}
	}
	var blocks [][]uint64
	var cur []uint64
	var lastPage byte
	for r.pos < len(r.data) {
		op := r.next()
		switch op % 4 {
		case 0:
			lastPage = r.next()
			cur = append(cur, va(lastPage, r.next()))
		case 1:
			for k := 0; k <= int(op>>2)%8; k++ {
				cur = append(cur, va(lastPage, op+byte(k)*37))
			}
		case 2:
			n, pages, start := 9+int(r.next())%24, 1+int(r.next())%12, r.next()
			for k := 0; k < n; k++ {
				lastPage = start + byte(k%pages)
				cur = append(cur, va(lastPage, byte(k*11)))
			}
		case 3:
			blocks = append(blocks, cur)
			cur = nil
		}
	}
	return cfg, large, append(blocks, cur)
}

// mapLargeLeaves makes e native and maps the large leaves the script's
// large-leaf flag addresses: eight 2M leaves from gVA 0x40000000 and
// two 1G leaves from 0x80000000. A native walk reads only guest-table
// pages, so the 1G targets need no backing memory.
func mapLargeLeaves(t *testing.T, e *env) {
	t.Helper()
	e.m.SetNestedPageTable(nil)
	for k := uint64(0); k < 8; k++ {
		if err := e.gPT.Map(0x40000000+k<<21, 0x2000000+k<<21, addr.Page2M); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < 2; k++ {
		if err := e.gPT.Map(0x80000000+k<<30, 0x40000000+k<<30, addr.Page1G); err != nil {
			t.Fatal(err)
		}
	}
}

// encodeVAs is the inverse of the access op for the block tests' VAs:
// pages below 0x900000 keep their index, the unmapped hole pages at
// 0x900000 land past blockScriptMapped, all in one block.
func encodeVAs(flags byte, vas []uint64) []byte {
	data := []byte{flags}
	for _, va := range vas {
		page := (va - 0x400000) >> 12
		if va >= 0x900000 {
			page = 2*blockScriptMapped + (va-0x900000)>>12
		}
		data = append(data, 0, byte(page), byte(va&0xfff>>4))
	}
	return data
}

// FuzzTranslateBlock holds the batched hit accounting of TranslateBlock
// to per-event Translate. Each script runs on three identical stacks:
// per-event Translate, TranslateBlock with a nil out, and TranslateBlock
// filling out, all servicing guest faults the same way. Their Stats and
// per-event Results must agree after the script, and again after a
// trailing per-event Translate of every page touched, whose Results
// must agree too. The last-page cache that one block leaves behind
// decides which later accesses probe the L1, and so the L1's LRU order;
// the small-L1 seeds make that order decide evictions, so a block that
// hands on the wrong last page shows up as a diverging miss count.
func FuzzTranslateBlock(f *testing.F) {
	f.Add(encodeVAs(0, blockTestVAs(24, 17)))
	f.Add(encodeVAs(1, blockTestVAs(24, 17)))
	f.Add(encodeVAs(2, blockTestVAs(8, 0)))
	f.Add(encodeVAs(2, blockTestVAs(24, 5)))
	// Runs over more pages than the small L1 holds, split by block
	// boundaries, with same-page repeats between them.
	f.Add([]byte{2, 2, 40, 5, 0, 1, 2, 23, 11, 3, 3, 5, 2, 31, 7, 4, 0, 3, 0x80, 2, 200, 9, 60, 3, 0, 70, 0x10, 9})
	f.Add([]byte{3, 0, 1, 0, 0, 2, 0, 1, 0, 3, 0, 3, 0, 2, 40, 3, 0, 0, 1, 0, 3, 0, 0, 2, 0, 5, 3, 0, 1, 0x20, 13})
	// Small L1, pages 0, 4 and 8 share a 2-way set. After A=0 and B=4
	// miss, a lone probe of A hits and doubles the gather, so B, A probe
	// as one run of two hits that leaves A the last page. B then probes
	// (A is older), C's miss evicts A, and B hits. A block that left B
	// as the last page skips B's probe, evicts B, and misses it.
	f.Add([]byte{2, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 4, 0, 0, 8, 0, 0, 4, 0})
	// Large leaves: a walk inserts a 2M entry mid-block (page 0xC0), and
	// the next accesses touch new 4K pages inside it, which miss the 4K
	// probe and hit the 2M structure. A cycling run over those pages, a
	// 1G walk and its hits, 4K misses and hits between them, and a
	// second block that starts with both large entries resident.
	f.Add([]byte{4, 0, 0, 0, 0, 0, 5, 0, 0xC0, 0, 0, 0xC1, 1, 0, 0xC2, 2, 0, 0xC3, 3,
		0, 1, 0, 2, 7, 3, 0xC0, 0, 0xE0, 0, 0, 0xE1, 4, 0, 0xC4, 0, 0, 0, 9,
		3, 0, 0xE2, 0, 0, 2, 0, 0, 0xC5, 1, 0, 0xC5, 2, 0, 0, 0})
	// The same on the small L1, whose 2M structure holds two of the
	// eight 2M leaves a set, under the cold walk configuration.
	f.Add([]byte{7, 2, 20, 11, 0xC0, 0, 3, 0, 0, 0xC4, 0, 0, 0xC8, 0, 0, 0xCC, 0,
		0, 0xD0, 0, 0, 0xC0, 0, 2, 31, 7, 0xC0, 0, 0xE0, 0, 3, 2, 15, 11, 0xD8})
	// Small L1: the 2M leaves of pages 0xC0, 0xC8 and 0xD0 share a
	// 2-way set. A large hit on 0xC1 makes 0xC1 the last page; 0xC8's
	// next access then probes and refreshes its leaf, so 0xD0's walk
	// evicts 0xC0's and 0xC2 misses. A block that left 0xC8 the last
	// page skips that probe, evicts 0xC8's leaf instead, and hits 0xC2.
	f.Add([]byte{6, 0, 0xC0, 0, 0, 0xC8, 0, 0, 0xC1, 0, 0, 0xC8, 1, 0, 0xD0, 0, 0, 0xC2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<13 {
			return
		}
		cfg, large, blocks := decodeBlockScript(data)
		var envs [3]*env
		for k := range envs {
			envs[k] = newEnv(t, 16, cfg)
			envs[k].mapGuest(t, 0x400000, 0x200000, blockScriptMapped)
			if large {
				mapLargeLeaves(t, envs[k])
			}
		}
		per, nilOut, withOut := envs[0], envs[1], envs[2]
		var touched []uint64
		seen := map[uint64]bool{}
		for _, vas := range blocks {
			want := runPerEvent(t, per, vas)
			if done := runBlock(t, nilOut, vas, nil); done != len(vas) {
				t.Fatalf("nil-out block completed %d of %d events", done, len(vas))
			}
			got := make([]Result, len(vas))
			if done := runBlock(t, withOut, vas, got); done != len(vas) {
				t.Fatalf("block completed %d of %d events", done, len(vas))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("va %#x: block result %+v, per-event %+v", vas[i], got[i], want[i])
				}
			}
			for _, va := range vas {
				if p := va >> 12; !seen[p] {
					seen[p] = true
					touched = append(touched, p<<12)
				}
			}
		}
		checkStats := func(when string) {
			t.Helper()
			for _, e := range envs[1:] {
				if e.m.Stats() != per.m.Stats() {
					t.Fatalf("%s: stats diverge:\nper-event: %+v\nblock:     %+v", when, per.m.Stats(), e.m.Stats())
				}
			}
		}
		checkStats("after the script")
		for _, va := range touched {
			want, wf := per.m.Translate(va)
			for _, e := range envs[1:] {
				if got, gf := e.m.Translate(va); got != want || (gf == nil) != (wf == nil) {
					t.Fatalf("trailing Translate(%#x) = %+v, %v; per-event %+v, %v", va, got, gf, want, wf)
				}
			}
		}
		checkStats("after the trailing translations")
	})
}
