package mmu

import (
	"testing"

	"vdirect/internal/tlb"
)

// blockScriptMapped is how many pages a FuzzTranslateBlock environment
// maps up front; script pages at or past it fault on first touch and
// are demand-mapped by serviceFault.
const blockScriptMapped = 32

// decodeBlockScript turns fuzz bytes into a configuration and a list of
// blocks of VAs. Byte 0 holds flags (bit 0: coldConfig, bit 1: a 2-way
// 8-entry L1 4K structure, so L1 sets evict constantly); each following
// op byte is one of
//
//	op%4 == 0  one access: page byte, offset byte (16-byte grain)
//	op%4 == 1  1-8 more accesses to the last page touched
//	op%4 == 2  a run of 9-32 accesses cycling over 1-12 pages from a
//	           start page byte: once warm, a hit run longer than the
//	           8-wide batched probe
//	op%4 == 3  end of the current block
//
// Page p is the gVA 0x400000 + p<<12; p < blockScriptMapped is mapped
// at the start, the rest fault mid-block.
func decodeBlockScript(data []byte) (Config, [][]uint64) {
	r := &fuzzReader{data: data}
	flags := r.next()
	var cfg Config
	if flags&1 != 0 {
		cfg = coldConfig()
	}
	if flags&2 != 0 {
		cfg.L1 = tlb.Geometry{Entries4K: 8, Ways4K: 2, Entries2M: 4, Ways2M: 2, Entries1G: 4, Ways1G: 4}
	}
	va := func(page, off byte) uint64 { return 0x400000 + uint64(page)<<12 + uint64(off)<<4 }
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
	return cfg, append(blocks, cur)
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
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<13 {
			return
		}
		cfg, blocks := decodeBlockScript(data)
		var envs [3]*env
		for k := range envs {
			envs[k] = newEnv(t, 16, cfg)
			envs[k].mapGuest(t, 0x400000, 0x200000, blockScriptMapped)
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
