package physmem

import (
	"testing"

	"vdirect/internal/addr"
	"vdirect/internal/trace"
)

func TestOwnerAccountingBasic(t *testing.T) {
	m := New(Config{Name: "t", Size: 1 << 20}) // 256 frames
	pre, err := m.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	m.TrackOwners()
	if got := m.OwnerFrames(OwnerNone); got != 1 {
		t.Fatalf("pre-tracking frame attributed to OwnerNone: got %d want 1", got)
	}
	if o, _, ok := m.OwnerRun(pre, 1); !ok || o != OwnerNone {
		t.Fatalf("OwnerRun(pre) = %d,%v want OwnerNone,true", o, ok)
	}

	prev := m.SetAllocOwner(7)
	if prev != OwnerNone {
		t.Fatalf("SetAllocOwner returned %d want OwnerNone", prev)
	}
	f1, _ := m.AllocFrame()
	start, err := m.AllocContiguous(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.OwnerFrames(7); got != 9 {
		t.Fatalf("owner 7 frames = %d want 9", got)
	}
	m.SetAllocOwner(3)
	if err := m.Reserve(addr.Range{Start: 128 << 12, Size: 4 << 12}); err != nil {
		t.Fatal(err)
	}
	if got := m.OwnerFrames(3); got != 4 {
		t.Fatalf("owner 3 frames = %d want 4", got)
	}
	if err := m.CheckOwnerAccounting(); err != nil {
		t.Fatal(err)
	}
	if got := m.Owners(); len(got) != 3 || got[0] != OwnerNone || got[1] != 3 || got[2] != 7 {
		t.Fatalf("Owners() = %v want [0 3 7]", got)
	}

	if err := m.FreeFrame(f1); err != nil {
		t.Fatal(err)
	}
	for f := start; f < start+8; f++ {
		if err := m.FreeFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.OwnerFrames(7); got != 0 {
		t.Fatalf("owner 7 frames after free = %d want 0", got)
	}
	if err := m.CheckOwnerAccounting(); err != nil {
		t.Fatal(err)
	}
}

func TestOwnerAccountingUntracked(t *testing.T) {
	m := New(Config{Name: "t", Size: 1 << 20})
	if m.TrackingOwners() {
		t.Fatal("tracking on by default")
	}
	f, _ := m.AllocFrame()
	if o, _, ok := m.OwnerRun(f, 1); ok || o != OwnerNone {
		t.Fatalf("OwnerRun untracked = %d,%v want OwnerNone,false", o, ok)
	}
	if m.OwnerFrames(OwnerNone) != 0 {
		t.Fatal("OwnerFrames nonzero while untracked")
	}
	if m.Owners() != nil {
		t.Fatal("Owners non-nil while untracked")
	}
	if err := m.CheckOwnerAccounting(); err != nil {
		t.Fatalf("CheckOwnerAccounting untracked: %v", err)
	}
}

// TestOwnerAccountingOpSequence drives a random op sequence (alloc,
// free, contiguous, run, fragment, compact, grow+online, probe) under
// rotating owners and checks the books against a full rescan after
// every step.
func TestOwnerAccountingOpSequence(t *testing.T) {
	m := New(Config{Name: "seq", Size: 4 << 20}) // 1024 frames
	m.TrackOwners()
	rng := trace.NewRand(0xfeedface)
	var live []uint64
	for step := 0; step < 400; step++ {
		m.SetAllocOwner(OwnerID(rng.Uint64n(5)))
		switch rng.Uint64n(8) {
		case 0, 1: // alloc
			if f, err := m.AllocFrame(); err == nil {
				live = append(live, f)
			}
		case 2: // free
			if len(live) > 0 {
				i := rng.Uint64n(uint64(len(live)))
				if err := m.FreeFrame(live[i]); err != nil {
					t.Fatalf("step %d: free: %v", step, err)
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		case 3: // contiguous
			n := rng.Uint64n(16) + 1
			if start, err := m.AllocContiguous(n, 1); err == nil {
				for f := start; f < start+n; f++ {
					live = append(live, f)
				}
			}
		case 4: // run
			if start, n, err := m.AllocRun(rng.Uint64n(16) + 1); err == nil {
				for f := start; f < start+n; f++ {
					live = append(live, f)
				}
			}
		case 5: // fragment
			live = append(live, m.FragmentRandomly(0.05, rng.Uint64n)...)
		case 6: // compact: repair our frame list like a real owner would
			moves := m.Compact()
			remap := map[uint64]uint64{}
			for _, mv := range moves {
				remap[mv.Old] = mv.New
			}
			for i, f := range live {
				if nf, ok := remap[f]; ok {
					live[i] = nf
				}
			}
		case 7: // probe must not perturb the books
			m.ProbeContiguous(rng.Uint64n(32)+1, 1, 4)
		}
		if err := m.CheckOwnerAccounting(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	if uint64(len(live)) != m.AllocatedFrames() {
		t.Fatalf("live list %d != allocated %d", len(live), m.AllocatedFrames())
	}
}

func TestOwnerSurvivesGrowAndCompact(t *testing.T) {
	m := New(Config{Name: "g", Size: 1 << 20})
	m.TrackOwners()
	m.SetAllocOwner(2)
	// Allocate high frames, free low ones, then compact: owner stamps
	// must travel with the moves.
	var frames []uint64
	for i := 0; i < 32; i++ {
		f, err := m.AllocFrame()
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	for i := 0; i < 16; i++ {
		if err := m.FreeFrame(frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	moves := m.Compact()
	if len(moves) == 0 {
		t.Fatal("expected compaction moves")
	}
	for _, mv := range moves {
		if o, _, ok := m.OwnerRun(mv.New, 1); !ok || o != 2 {
			t.Fatalf("moved frame %#x owner = %d,%v want 2,true", mv.New, o, ok)
		}
	}
	if err := m.CheckOwnerAccounting(); err != nil {
		t.Fatal(err)
	}

	r, err := m.Grow(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Online(r); err != nil {
		t.Fatal(err)
	}
	m.SetAllocOwner(9)
	if err := m.AllocFrameAt(r.Start >> frameShift); err != nil {
		t.Fatal(err)
	}
	if got := m.OwnerFrames(9); got != 1 {
		t.Fatalf("owner 9 frames = %d want 1", got)
	}
	if err := m.CheckOwnerAccounting(); err != nil {
		t.Fatal(err)
	}
}

func TestFragStats(t *testing.T) {
	m := New(Config{Name: "f", Size: 1 << 20}) // 256 frames
	r := m.FragStats()
	if r.FreeFrames != 256 || r.FreeRuns != 1 || r.LargestRun != 256 || r.FragIndex != 0 {
		t.Fatalf("pristine FragStats = %+v", r)
	}
	// Allocate frames 64..127, splitting free space into two runs of
	// 64 and 128 frames.
	for f := uint64(64); f < 128; f++ {
		if err := m.AllocFrameAt(f); err != nil {
			t.Fatal(err)
		}
	}
	r = m.FragStats()
	if r.FreeFrames != 192 || r.FreeRuns != 2 || r.LargestRun != 128 {
		t.Fatalf("split FragStats = %+v", r)
	}
	want := 1 - 128.0/192.0
	if diff := r.FragIndex - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("FragIndex = %v want %v", r.FragIndex, want)
	}
	if r.MeanRunLen != 96 {
		t.Fatalf("MeanRunLen = %v want 96", r.MeanRunLen)
	}
}

func TestProbeContiguousNonPerturbing(t *testing.T) {
	m := New(Config{Name: "p", Size: 1 << 20}) // 256 frames
	m.TrackOwners()
	m.SetAllocOwner(4)
	// Fragment: allocate every other 16-frame block.
	for f := uint64(0); f < 256; f += 32 {
		for g := f; g < f+16; g++ {
			if err := m.AllocFrameAt(g); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := m.FragStats()
	alloc := m.AllocatedFrames()

	if got := m.ProbeContiguous(16, 1, 0); got != 8 {
		t.Fatalf("ProbeContiguous(16) = %d want 8", got)
	}
	if got := m.ProbeContiguous(17, 1, 0); got != 0 {
		t.Fatalf("ProbeContiguous(17) = %d want 0", got)
	}
	if got := m.ProbeContiguous(16, 1, 3); got != 3 {
		t.Fatalf("ProbeContiguous(16, max 3) = %d want 3", got)
	}

	if m.AllocatedFrames() != alloc {
		t.Fatalf("probe perturbed alloc count: %d -> %d", alloc, m.AllocatedFrames())
	}
	if after := m.FragStats(); after != before {
		t.Fatalf("probe perturbed frag state: %+v -> %+v", before, after)
	}
	if err := m.CheckOwnerAccounting(); err != nil {
		t.Fatal(err)
	}
	// The hint invariant must still hold: next alloc takes the lowest
	// available frame.
	if f, err := m.AllocFrame(); err != nil || f != 16 {
		t.Fatalf("post-probe AllocFrame = %d,%v want 16,nil", f, err)
	}
}

// ownedMemory is a tracked memory with two owners' runs allocated:
// owner 1 holds frames 0–7 and owner 2 frames 8–15.
func ownedMemory(t *testing.T) *Memory {
	t.Helper()
	m := New(Config{Name: "t", Size: 1 << 20})
	m.TrackOwners()
	for _, o := range []OwnerID{1, 2} {
		m.SetAllocOwner(o)
		if f, err := m.AllocContiguous(8, 1); err != nil || f != uint64(o-1)*8 {
			t.Fatalf("owner %d run at frame %d, %v", o, f, err)
		}
	}
	if err := m.CheckOwnerAccounting(); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestOwnerAccountingCatchesMovedStamp: a frame whose owner stamp moves
// to another listed owner leaves the sum and the owner set intact, so
// only the per-owner comparison can catch it.
func TestOwnerAccountingCatchesMovedStamp(t *testing.T) {
	m := ownedMemory(t)
	m.owners[3] = 2
	if err := m.CheckOwnerAccounting(); err == nil {
		t.Fatal("a frame restamped from owner 1 to owner 2 passed the check")
	}
}

// TestOwnerAccountingCatchesUnlistedOwner: a stamp naming an owner the
// books do not list must fail the check.
func TestOwnerAccountingCatchesUnlistedOwner(t *testing.T) {
	m := ownedMemory(t)
	m.owners[12] = 9
	if err := m.CheckOwnerAccounting(); err == nil {
		t.Fatal("a frame stamped for unlisted owner 9 passed the check")
	}
}
