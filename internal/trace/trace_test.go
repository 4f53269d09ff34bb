package trace

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"unsafe"

	"vdirect/internal/addr"
)

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRand(43)
	same := 0
	a = NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds collide too often: %d/1000", same)
	}
}

func TestRandZeroSeed(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Error("zero seed stuck at zero")
	}
}

func TestUint64nRange(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		if v := r.Uint64n(17); v >= 17 {
			t.Fatalf("Uint64n(17) = %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	r.Uint64n(0)
}

func TestFloat64Range(t *testing.T) {
	r := NewRand(9)
	for i := 0; i < 10000; i++ {
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 = %g out of [0,1)", f)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRand(11)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRand(123)
	z := NewZipf(r, 1000, 0.99)
	const draws = 200000
	counts := make([]int, 1000)
	for i := 0; i < draws; i++ {
		k := z.Rank()
		if k >= 1000 {
			t.Fatalf("rank %d out of range", k)
		}
		counts[k]++
	}
	// Rank 0 should dominate: with s=0.99 over 1000 items its mass is
	// roughly 1/H ≈ 13%; allow a broad band.
	if frac := float64(counts[0]) / draws; frac < 0.08 || frac > 0.25 {
		t.Errorf("rank-0 mass = %.3f, want ~0.13", frac)
	}
	// Monotone-ish decay: top decile should hold the majority of mass.
	top := 0
	for i := 0; i < 100; i++ {
		top += counts[i]
	}
	if frac := float64(top) / draws; frac < 0.5 {
		t.Errorf("top-decile mass = %.3f, want > 0.5", frac)
	}
}

func TestZipfRatioMatchesLaw(t *testing.T) {
	// P(rank 0)/P(rank 1) should approximate 2^s.
	r := NewRand(77)
	s := 1.2
	z := NewZipf(r, 100, s)
	var c0, c1 int
	for i := 0; i < 500000; i++ {
		switch z.Rank() {
		case 0:
			c0++
		case 1:
			c1++
		}
	}
	got := float64(c0) / float64(c1)
	want := math.Pow(2, s)
	if math.Abs(got-want)/want > 0.1 {
		t.Errorf("rank0/rank1 = %.3f, want ~%.3f", got, want)
	}
}

func TestZipfPanicsOnZeroN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewZipf(0) did not panic")
		}
	}()
	NewZipf(NewRand(1), 0, 1.1)
}

func TestSliceRoundTrip(t *testing.T) {
	evs := []Event{
		{Kind: Access, VA: 0x1000},
		{Kind: Alloc, VA: 0x2000, Size: 0x3000},
		{Kind: Access, VA: 0x4fff, Write: true},
	}
	s := NewSlice("demo", evs)
	if s.Name() != "demo" || s.Len() != 3 {
		t.Fatalf("slice meta wrong: %s %d", s.Name(), s.Len())
	}
	ws := s.WorkingSet()
	if ws.Start != 0x1000 || ws.End() != 0x5000 {
		t.Errorf("WorkingSet = %v, want [0x1000, 0x5000)", ws)
	}
	var got []Event
	for {
		ev, ok := s.Next()
		if !ok {
			break
		}
		got = append(got, ev)
	}
	if len(got) != 3 || got[2].Write != true {
		t.Errorf("replay = %+v", got)
	}
	s.Reset()
	if ev, ok := s.Next(); !ok || ev.VA != 0x1000 {
		t.Error("Reset did not rewind")
	}
}

func TestSliceEmpty(t *testing.T) {
	s := NewSlice("empty", nil)
	if _, ok := s.Next(); ok {
		t.Error("empty slice produced an event")
	}
	if !s.WorkingSet().Empty() {
		t.Error("empty slice has non-empty working set")
	}
}

func TestCollect(t *testing.T) {
	evs := make([]Event, 10)
	for i := range evs {
		evs[i] = Event{Kind: Access, VA: addr.GVA(i * 4096)}
	}
	src := NewSlice("src", evs)
	c, err := Collect(src, 4)
	if c.Len() != 4 {
		t.Errorf("Collect(max=4) len = %d", c.Len())
	}
	if !errors.Is(err, ErrTruncated) {
		t.Errorf("Collect(max=4) err = %v, want ErrTruncated", err)
	}
	src.Reset()
	c, err = Collect(src, 0)
	if err != nil {
		t.Errorf("Collect(all) err = %v", err)
	}
	if c.Len() != 10 {
		t.Errorf("Collect(all) len = %d", c.Len())
	}
	// An exact-length max is not a truncation.
	src.Reset()
	c, err = Collect(src, 10)
	if err != nil || c.Len() != 10 {
		t.Errorf("Collect(max=len) = %d events, err %v", c.Len(), err)
	}
}

func TestNextBlockMatchesNext(t *testing.T) {
	evs := make([]Event, 10)
	for i := range evs {
		evs[i] = Event{Kind: Access, VA: addr.GVA(i * 4096)}
	}
	a, b := NewSlice("a", evs), NewSlice("b", evs)
	buf := make([]Event, 3)
	var blocked []Event
	for {
		n := a.NextBlock(buf)
		if n == 0 {
			break
		}
		blocked = append(blocked, buf[:n]...)
	}
	for i := 0; ; i++ {
		ev, ok := b.Next()
		if !ok {
			if i != len(blocked) {
				t.Fatalf("NextBlock yielded %d events, Next %d", len(blocked), i)
			}
			break
		}
		if blocked[i] != ev {
			t.Fatalf("event %d: NextBlock %+v vs Next %+v", i, blocked[i], ev)
		}
	}
	// The two APIs share one cursor: Reset rewinds both.
	a.Reset()
	if ev, ok := a.Next(); !ok || ev.VA != 0 {
		t.Error("Next after Reset did not rewind the block cursor")
	}
	if n := a.NextBlock(buf); n != 3 || buf[0].VA != 0x1000 {
		t.Errorf("NextBlock after Next = %d events starting %#x", n, buf[0].VA)
	}
}

func TestKindString(t *testing.T) {
	if Access.String() != "access" || Alloc.String() != "alloc" || Free.String() != "free" {
		t.Error("Kind strings wrong")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Error("unknown kind string wrong")
	}
}

func TestRandStatisticalUniformity(t *testing.T) {
	// Chi-square-ish sanity over 16 buckets.
	f := func(seed uint64) bool {
		r := NewRand(seed)
		var buckets [16]int
		const n = 16000
		for i := 0; i < n; i++ {
			buckets[r.Uint64n(16)]++
		}
		for _, c := range buckets {
			if c < n/16-300 || c > n/16+300 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 20}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestEventSize pins Event at 24 bytes: the two words, then Kind and
// Write sharing the third. Every trace buffer and NextBlock copy is
// sized in Events, so a field added later must not re-pad the struct
// to 32 bytes unnoticed.
func TestEventSize(t *testing.T) {
	if n := unsafe.Sizeof(Event{}); n != 24 {
		t.Fatalf("unsafe.Sizeof(Event{}) = %d, want 24", n)
	}
}
