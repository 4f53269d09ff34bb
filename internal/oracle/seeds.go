// Structured seed inputs for the differential fuzz harness. These are
// shared between the fuzz target (as f.Add seeds), the deterministic
// regression tests (every seed must pass in plain `go test`), and the
// checked-in corpus under testdata/fuzz. Together they cover every
// opcode and every mode transition, so a translation bug anywhere in
// the stack is caught by the seed corpus alone, before any fuzzing.

package oracle

// Op stream encoding (see Harness.step): byte 0 is a flag byte — bit 0
// appends the mode-monotonicity replay, bits 1-2 select the nested
// page size (0 → 4K, 1 → 2M, 2 → 1G), bit 3 starts the stack with
// flattened nested walks — then op bytes dispatched through a weighted
// 256-entry table. Each op* constant below is the first byte of its
// range; the range widths bias the fuzzer toward accesses (120/256)
// and mode-changing mutations (resize and the two toggles get 24/256
// each) over plain paging churn (16/256 each): access(b1,b2),
// map(b1,b2), unmap(b1,b2), resize(b), toggle VMM segment, toggle
// virtualization, escape guest page(b), sub-op(b): escape VMM page /
// balloon / flush / context switch / ASID flush / flat-walk toggle /
// single-page invalidate(b1,b2).
const (
	opAccess     = 0   // 0-119
	opMap        = 120 // 120-135
	opUnmap      = 136 // 136-151
	opResize     = 152 // 152-175
	opToggleVMM  = 176 // 176-199
	opToggleVirt = 200 // 200-223
	opEscGuest   = 224 // 224-239
	opSub        = 240 // 240-255

	subEscVMM     = 0
	subBalloon    = 1
	subFlush      = 2
	subSwitch     = 3 // context switch; operand bit 0 = ASID-tagged
	subFlushASID  = 4 // INVPCID of operand%2
	subToggleFlat = 5 // flip flattened nested walks
	subInvlPage   = 6 // INVLPG of a decoded VA (b1,b2)

	flagPlainOnly = 0
	flagMonotone  = 1
	flagNested2M  = 2
	flagNested1G  = 4
	flagFlat      = 8
)

// namedSeed pairs a seed stream with its testdata/fuzz corpus file
// name; TestSeedCorpusInSync keeps the two byte-identical.
type namedSeed struct {
	name string
	data []byte
}

func namedSeeds() []namedSeed {
	return []namedSeed{
		{"seed-access-sweep", seedAccessSweep()},
		{"seed-paging-churn", seedPagingChurn()},
		{"seed-mode-churn", seedModeChurn()},
		{"seed-escape-storm", seedEscapeStorm()},
		{"seed-huge-pages", seedHugePages()},
		{"seed-nested-2m", seedNestedHuge(flagMonotone | flagNested2M)},
		{"seed-nested-1g", seedNestedHuge(flagNested1G)},
		{"seed-multi-process", seedMultiProcess()},
		{"seed-memo-churn", seedMemoChurn()},
		{"seed-flat-nested", seedFlatNested()},
		{"seed-unmap-retouch", seedUnmapRetouch()},
	}
}

// Seeds returns the structured seed corpus.
func Seeds() [][]byte {
	ns := namedSeeds()
	out := make([][]byte, len(ns))
	for i, s := range ns {
		out[i] = s.data
	}
	return out
}

// seedAccessSweep touches all three regions in Dual Direct steady
// state and replays the trace through the monotonicity checker.
func seedAccessSweep() []byte {
	b := []byte{flagMonotone}
	for i := 0; i < 96; i++ {
		b = append(b, opAccess, byte(i), byte(i*7))
	}
	return b
}

// seedPagingChurn maps, touches, unmaps and resizes, interleaved with
// primary-region accesses that demand-page when the segment shrinks.
func seedPagingChurn() []byte {
	b := []byte{flagPlainOnly}
	for i := 0; i < 24; i++ {
		b = append(b,
			opMap, byte(i), byte(i*3),
			opAccess, 2, byte(i*5),
			opResize, byte(i*11),
			opAccess, 0, byte(i*13),
			opUnmap, byte(i), byte(i*3),
			opSub, subFlush,
		)
	}
	return b
}

// seedModeChurn walks the machine through every register combination:
// Dual Direct → Guest Direct → Direct Segment (native) → Base
// Virtualized → VMM Direct and back, touching memory at each stop.
func seedModeChurn() []byte {
	b := []byte{flagPlainOnly}
	touch := func(k int) {
		for i := 0; i < 12; i++ {
			b = append(b, opAccess, byte(i), byte(i*9+k))
		}
	}
	touch(0)
	b = append(b, opToggleVMM) // Guest Direct
	touch(1)
	b = append(b, opToggleVirt) // native Direct Segment
	touch(2)
	b = append(b, opResize, 0) // native paging
	touch(3)
	b = append(b, opToggleVirt) // Base Virtualized
	touch(4)
	b = append(b, opToggleVMM) // VMM Direct
	touch(5)
	b = append(b, opResize, 255) // back toward Dual Direct
	touch(6)
	return b
}

// seedEscapeStorm dirties both escape filters (bad guest pages, bad
// host pages, ballooning) and keeps touching the affected regions.
func seedEscapeStorm() []byte {
	b := []byte{flagPlainOnly}
	for i := 0; i < 16; i++ {
		b = append(b,
			opEscGuest, byte(i*17),
			opAccess, 0, byte(i*17),
			opSub, subEscVMM, byte(i), byte(i*29),
			opAccess, 1, byte(i*31),
			opSub, subBalloon,
			opAccess, 2, byte(i*37),
		)
	}
	return b
}

// seedNestedHuge exercises a harness backed by 2M or 1G nested pages
// (the flag byte picks which): paging churn, whole-leaf migration and
// VMM-segment toggles under a 3- or 2-level nested dimension, so the
// 19-ref and 14-ref 2D-walk rows of the mode table run through the
// same differential checks as the 24-ref default.
func seedNestedHuge(flag byte) []byte {
	b := []byte{flag}
	for i := 0; i < 12; i++ {
		b = append(b,
			opAccess, byte(i), byte(i*7),
			opMap, byte(i), byte(i*3),
			opAccess, 2, byte(i*5),
			opSub, subEscVMM, byte(i), byte(i*29),
			opAccess, 0, byte(i*13),
			opToggleVMM,
			opAccess, 1, byte(i*11),
			opToggleVMM,
			opUnmap, byte(i), byte(i*3),
		)
	}
	return b
}

// seedMultiProcess time-slices both guest processes, alternating tagged
// (ASID retag) and untagged (full flush) context switches. Each slice
// demand-pages, touches all three regions, resizes its own segment and
// flushes one ASID, so per-address-space TLB tagging, retagging and
// INVPCID all run under the differential check — a stale cross-ASID
// entry anywhere in the hierarchy translates through the wrong
// process's mappings and trips the oracle comparison.
func seedMultiProcess() []byte {
	b := []byte{flagPlainOnly}
	for i := 0; i < 16; i++ {
		b = append(b,
			opAccess, 2, byte(i*13), // paged region: per-process demand paging
			opAccess, 0, byte(i*7), // primary region: per-process segment
			opMap, byte(i), byte(i*5),
			opSub, subSwitch, byte(i), // tagged on odd i, flush on even
			opAccess, 2, byte(i*13), // same selectors, other address space
			opAccess, 1, byte(i*11),
			opResize, byte(i*23),
			opSub, subFlushASID, byte(i),
			opAccess, 3, byte(i*17),
			opSub, subSwitch, byte(i+1),
		)
	}
	return b
}

// seedFlatNested runs the flattened-nested-walk scheme through the
// differential checks. Built flat (flag bit 3), it pages, resizes the
// guest segment and toggles the VMM segment so flat walks run covered,
// uncovered and on 2M guest leaves; flips virtualization so the flag
// goes latent and returns; and flips the flag itself mid-stream so the
// base and flat walkers alternate over identical state. The whole trace
// also replays through the monotonicity checker.
func seedFlatNested() []byte {
	b := []byte{flagMonotone | flagFlat}
	for i := 0; i < 16; i++ {
		b = append(b,
			opAccess, byte(i), byte(i*7),
			opMap, byte(i), byte(i*3),
			opAccess, 2, byte(i*5),
			opResize, byte(i*11),
			opAccess, 0, byte(i*13),
			opToggleVMM,
			opAccess, 1, byte(i*11),
			opToggleVMM,
			opMap, 0x80, byte(i),
			opAccess, 3, byte(i*41),
			opToggleVirt,
			opAccess, 0, byte(i*19),
			opToggleVirt,
			opSub, subToggleFlat,
			opAccess, 2, byte(i*17),
			opSub, subToggleFlat,
		)
	}
	return b
}

// seedMemoChurn drives unsegmented nested paging through every TLB
// invalidation source while re-touching a small page set hot enough to
// keep its entries resident: full flushes, INVPCID, tagged and untagged
// context switches, single-page INVLPG of the hot pages, segment
// re-enable/disable and flat-walk flips. Every access is checked
// against the oracle's flat-map reference, so an entry surviving any of
// these operations stale is a translation divergence. (The name dates
// from the per-page miss memo this seed was written to churn; the seed
// outlived it and kept its name so fuzz corpora stay comparable.)
func seedMemoChurn() []byte {
	b := []byte{flagPlainOnly}
	// Drop both segments: VMM toggle off, guest segment resized to zero
	// pages. From here every miss of both stacks takes the base 2D walk.
	b = append(b, opToggleVMM, opResize, 0)
	touch := func(k int) {
		for i := 0; i < 6; i++ {
			b = append(b, opAccess, 2, byte(16+(k+i)%12)) // hot paged-region set
		}
	}
	touch(0)
	for i := 0; i < 10; i++ {
		b = append(b,
			opMap, byte(i), byte(16+i),
		)
		touch(i)
		b = append(b, opSub, subInvlPage, 2, byte(16+i)) // INVLPG a hot page
		touch(i + 1)
		b = append(b, opSub, subFlush)
		touch(i + 2)
		b = append(b, opSub, subFlushASID, byte(i))
		touch(i + 3)
		b = append(b, opSub, subSwitch, byte(i)) // tagged on odd i
		b = append(b, opResize, 0)               // new process: drop its segment too
		touch(i + 4)
		b = append(b, opSub, subSwitch, byte(i+1))
		touch(i + 5)
		b = append(b,
			opResize, 64, // re-cover: Guest Direct
			opAccess, 0, byte(i*7),
			opResize, 0, // uncover: base 2D again
		)
		touch(i + 6)
		b = append(b, opSub, subToggleFlat) // flat walker
		touch(i + 7)
		b = append(b, opSub, subToggleFlat) // back to the base 2D walk
		touch(i + 8)
	}
	return b
}

// seedUnmapRetouch re-touches each paged-region page right after its
// unmap, in the unsegmented 2D configuration. The touch before the
// unmap leaves the translation in both TLB levels, so an InvalidatePage
// that missed either one would serve the freed frame where the oracle
// predicts a guest fault; the demand-paged retry then must resolve to
// the new frame.
func seedUnmapRetouch() []byte {
	b := []byte{flagPlainOnly, opToggleVMM, opResize, 0}
	for i := 0; i < 12; i++ {
		b = append(b,
			opMap, 0, byte(i),
			opAccess, 2, byte(i),
			opUnmap, 0, byte(i),
			opAccess, 2, byte(i),
		)
	}
	return b
}

// seedHugePages maps and unmaps the 2M slots around accesses, in both
// virtualized and native translation.
func seedHugePages() []byte {
	b := []byte{flagMonotone}
	for i := 0; i < 8; i++ {
		b = append(b,
			opMap, 0x80, byte(i),
			opAccess, 3, byte(i*41),
			opAccess, 7, byte(i*43),
			opToggleVirt,
			opAccess, 3, byte(i*47),
			opToggleVirt,
			opUnmap, 0x80, byte(i),
		)
	}
	return b
}
