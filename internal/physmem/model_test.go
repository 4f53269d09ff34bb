package physmem

import (
	"fmt"
	"slices"
	"testing"

	"vdirect/internal/addr"
	"vdirect/internal/trace"
)

// frameModel is the reference state of a Memory, one bool per frame.
// Frames below lo are allocated at setup and never touched again, so
// the lowest-first searches start there.
type frameModel struct {
	alloc, bad, off []bool
	lo              uint64
}

func (r *frameModel) frames() uint64 { return uint64(len(r.alloc)) }

func (r *frameModel) avail(f uint64) bool { return !r.alloc[f] && !r.bad[f] && !r.off[f] }

// runFrom counts available frames from f, up to max.
func (r *frameModel) runFrom(f, max uint64) uint64 {
	var n uint64
	for n < max && f+n < r.frames() && r.avail(f+n) {
		n++
	}
	return n
}

// contiguous returns the lowest align-aligned start of n available
// frames.
func (r *frameModel) contiguous(n, align uint64) (uint64, bool) {
	for s := addr.AlignUp(r.lo, align); s+n <= r.frames(); s += align {
		if r.runFrom(s, n) == n {
			return s, true
		}
	}
	return 0, false
}

func (r *frameModel) free() uint64 {
	var n uint64
	for f := r.lo; f < r.frames(); f++ {
		if r.avail(f) {
			n++
		}
	}
	return n
}

// compact is Compact's two-pointer sweep over the model's bools.
func (r *frameModel) compact() []Move {
	var moves []Move
	dst, src := r.lo, r.frames()
	for {
		for dst < r.frames() && !r.avail(dst) {
			dst++
		}
		for src > 0 && !r.alloc[src-1] {
			src--
		}
		if src == 0 || dst >= src-1 {
			return moves
		}
		src--
		r.alloc[src], r.alloc[dst] = false, true
		moves = append(moves, Move{Old: src, New: dst})
	}
}

// span reports whether [f, f+n) lies in the memory and every frame in
// it has offline state want.
func (r *frameModel) span(f, n uint64, want bool) (inRange, all bool) {
	if f+n > r.frames() {
		return false, false
	}
	for g := f; g < f+n; g++ {
		if r.off[g] != want {
			return true, false
		}
	}
	return true, true
}

// TestMemoryMatchesFrameModel runs random sequences of every frame
// operation against a per-frame reference model and compares after
// each one what a caller can read back.
func TestMemoryMatchesFrameModel(t *testing.T) {
	gapStart, gapEnd := addr.IOGapStart>>frameShift, addr.IOGapEnd>>frameShift
	configs := []struct {
		name  string
		cfg   Config
		lo    uint64 // frames reserved at setup
		seeds uint64
		ops   int
		marks bool // MarkBad, Offline and Grow are in the op mix
	}{
		{"small", Config{Size: 300 << frameShift}, 0, 4, 400, true},
		// Every check of a gap memory scans its 2^20 frames, so it runs
		// fewer sequences.
		{"gap", Config{Size: addr.IOGapEnd + 256<<frameShift, IOGap: true}, gapStart - 256, 2, 60, true},
		{"unmarked", Config{Size: 1000 << frameShift}, 0, 3, 400, false},
		{"gap-flag-below-3G", Config{Size: 200 << frameShift, IOGap: true}, 0, 3, 200, true},
	}
	for _, c := range configs {
		for seed := uint64(1); seed <= c.seeds; seed++ {
			rng := trace.NewRand(seed)
			m := New(c.cfg)
			frames := c.cfg.Size >> frameShift
			ref := &frameModel{
				alloc: make([]bool, frames), bad: make([]bool, frames), off: make([]bool, frames),
				lo: c.lo,
			}
			if c.cfg.IOGap && c.cfg.Size > addr.IOGapStart {
				for f := gapStart; f < gapEnd; f++ {
					ref.off[f] = true
				}
			}
			if c.lo > 0 {
				if err := m.Reserve(addr.Range{Start: 0, Size: c.lo << frameShift}); err != nil {
					t.Fatal(err)
				}
				for f := uint64(0); f < c.lo; f++ {
					ref.alloc[f] = true
				}
			}
			// hot lists the frames the ops pick from and the checks read:
			// everything above lo in a small memory; around the gap's
			// edges and the memory's end in a gap memory; and two frames
			// past the end.
			hot := func() []uint64 {
				var h []uint64
				for f := c.lo; f < ref.frames()+2; f++ {
					if f == gapStart+32 && ref.frames() > gapEnd {
						f = gapEnd - 32
					}
					h = append(h, f)
				}
				return h
			}
			hf := hot()
			for op := 0; op < c.ops; op++ {
				f := hf[rng.Intn(len(hf))]
				n := 1 + rng.Uint64n(24)
				what := fmt.Sprintf("%s seed %d op %d", c.name, seed, op)
				k := rng.Uint64n(11)
				if !c.marks && (k == 5 || k == 6 || k == 8) {
					k = 0
				}
				switch k {
				case 0:
					got, err := m.AllocFrame()
					want, ok := ref.contiguous(1, 1)
					if ok != (err == nil) || ok && got != want {
						t.Fatalf("%s: AllocFrame = (%d, %v), want (%d, %v)", what, got, err, want, ok)
					}
					if ok {
						ref.alloc[want] = true
					} else if err != ErrOutOfMemory {
						t.Fatalf("%s: AllocFrame err %v", what, err)
					}
				case 1:
					max := rng.Uint64n(40)
					first, got, err := m.AllocRun(max)
					want, ok := ref.contiguous(1, 1)
					run := uint64(0)
					if ok && max > 0 {
						run = ref.runFrom(want, max)
					} else {
						ok = false
					}
					if ok != (err == nil) || ok && (first != want || got != run) {
						t.Fatalf("%s: AllocRun(%d) = (%d, %d, %v), want (%d, %d)", what, max, first, got, err, want, run)
					}
					for g := want; ok && g < want+run; g++ {
						ref.alloc[g] = true
					}
				case 2:
					align := uint64(1) << rng.Uint64n(7)
					got, err := m.AllocContiguous(n, align)
					want, ok := ref.contiguous(n, align)
					if ok != (err == nil) || ok && got != want {
						t.Fatalf("%s: AllocContiguous(%d, %d) = (%d, %v), want (%d, %v)", what, n, align, got, err, want, ok)
					}
					for g := want; ok && g < want+n; g++ {
						ref.alloc[g] = true
					}
				case 3:
					err := m.AllocFrameAt(f)
					var want error
					switch {
					case f >= ref.frames():
						want = ErrOutOfRange
					case ref.alloc[f]:
						want = ErrDoubleAlloc
					case ref.bad[f]:
						want = ErrBadFrame
					case ref.off[f]:
						want = ErrGapViolation
					default:
						ref.alloc[f] = true
					}
					if err != want {
						t.Fatalf("%s: AllocFrameAt(%d) = %v, want %v", what, f, err, want)
					}
				case 4:
					err := m.FreeFrame(f)
					var want error
					switch {
					case f >= ref.frames():
						want = ErrOutOfRange
					case !ref.alloc[f]:
						want = ErrNotAllocated
					default:
						ref.alloc[f] = false
					}
					if err != want {
						t.Fatalf("%s: FreeFrame(%d) = %v, want %v", what, f, err, want)
					}
				case 5:
					err := m.MarkBad(f)
					var want error
					if f >= ref.frames() {
						want = ErrOutOfRange
					} else {
						ref.bad[f] = true
					}
					if err != want {
						t.Fatalf("%s: MarkBad(%d) = %v, want %v", what, f, err, want)
					}
				case 6:
					err := m.Offline(addr.Range{Start: f << frameShift, Size: n << frameShift})
					inRange, _ := ref.span(f, n, true)
					ok := inRange
					for g := f; ok && g < f+n; g++ {
						ok = !ref.alloc[g]
					}
					if ok != (err == nil) || !inRange && err != ErrOutOfRange {
						t.Fatalf("%s: Offline(%d, %d) = %v, want ok %v", what, f, n, err, ok)
					}
					for g := f; ok && g < f+n; g++ {
						ref.off[g] = true
					}
				case 7:
					err := m.Online(addr.Range{Start: f << frameShift, Size: n << frameShift})
					inRange, all := ref.span(f, n, true)
					var want error
					switch {
					case !inRange:
						want = ErrOutOfRange
					case !all:
						want = ErrAlreadyOnline
					default:
						for g := f; g < f+n; g++ {
							ref.off[g] = false
						}
					}
					if err != want {
						t.Fatalf("%s: Online(%d, %d) = %v, want %v", what, f, n, err, want)
					}
				case 8:
					r, err := m.Grow(n << frameShift)
					if err != nil || r.Start != ref.frames()<<frameShift || r.Size != n<<frameShift {
						t.Fatalf("%s: Grow(%d frames) = (%v, %v)", what, n, r, err)
					}
					for range n {
						ref.alloc = append(ref.alloc, false)
						ref.bad = append(ref.bad, false)
						ref.off = append(ref.off, true)
					}
					hf = hot()
				default:
					got, want := m.Compact(), ref.compact()
					if !slices.Equal(got, want) {
						t.Fatalf("%s: Compact moved %v, want %v", what, got, want)
					}
				}
				if got, want := m.FreeFrames(), ref.free(); got != want {
					t.Fatalf("%s: FreeFrames = %d, want %d", what, got, want)
				}
				if m.Frames() != ref.frames() {
					t.Fatalf("%s: Frames = %d, want %d", what, m.Frames(), ref.frames())
				}
				for _, g := range hf {
					in := g < ref.frames()
					if m.IsAllocated(g) != (in && ref.alloc[g]) || m.IsBad(g) != (in && ref.bad[g]) ||
						m.IsOffline(g) != (in && ref.off[g]) {
						t.Fatalf("%s: frame %d reads allocated %v bad %v offline %v, want %v %v %v", what, g,
							m.IsAllocated(g), m.IsBad(g), m.IsOffline(g), in && ref.alloc[g], in && ref.bad[g], in && ref.off[g])
					}
				}
				var bad []uint64
				for g := ref.lo; g < ref.frames(); g++ {
					if ref.bad[g] {
						bad = append(bad, g)
					}
				}
				if got := m.BadFrames(); !slices.Equal(got, bad) {
					t.Fatalf("%s: BadFrames = %v, want %v", what, got, bad)
				}
			}
			// A memory that never marks a frame allocates neither lazy
			// bitmap.
			if !c.marks && (m.offline != nil || m.bad != nil) {
				t.Errorf("%s seed %d: unmarked memory allocated %d offline and %d bad words",
					c.name, seed, len(m.offline), len(m.bad))
			}
		}
	}
}
