package walkprof

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"vdirect/internal/addr"
)

// feed drives a sampler with a synthetic miss stream derived from i, so
// identical calls produce identical streams.
func feed(s *Sampler, n int) {
	for i := 0; i < n; i++ {
		s.Offer(false, "Base", uint64(i)>>2, addr.Page4K, ClassWalkNeither, 24, uint64(100+i%7), 0)
	}
}

// TestOfferFaultedMisses pins how faulted misses advance the stride: a
// faulted miss consumes a countdown step unless it is the one due, and
// then the next miss records instead. The reference is the countdown
// written out, decrement first, with the due fault handing its sample on.
func TestOfferFaultedMisses(t *testing.T) {
	p := &Profile{period: 4, streams: make(map[CellKey][][]Sample)}
	s := p.Sampler("cell", 0, 2)
	countdown := uint64(2%4 + 1)
	var want []uint64
	for i := uint64(0); i < 200; i++ {
		faulted := i%3 == 0 || i%7 == 0
		s.Offer(faulted, "Base", i, addr.Page4K, ClassWalkNeither, 24, 100, 0)
		countdown--
		if countdown == 0 {
			countdown = 4
			if faulted {
				countdown = 1
			} else {
				want = append(want, i)
			}
		}
	}
	var got []uint64
	for _, smp := range s.Samples() {
		got = append(got, smp.VPN)
	}
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("recorded misses %v, want %v", got, want)
	}
}

func TestSamplerStrideDeterminism(t *testing.T) {
	p := &Profile{period: 8, streams: make(map[CellKey][][]Sample)}
	a := p.Sampler("cell", 0, 12345)
	b := p.Sampler("cell", 0, 12345)
	feed(a, 1000)
	feed(b, 1000)
	if !reflect.DeepEqual(a.Samples(), b.Samples()) {
		t.Fatal("same seed + same miss stream produced different samples")
	}
	// 1000 misses at period 8 with phase 12345%8+1=2: first sample at
	// miss 2, then every 8th → 1 + (1000-2)/8 = 125.
	if got := a.Len(); got != 125 {
		t.Fatalf("sample count = %d, want 125", got)
	}
	// A different seed shifts the phase but keeps the count within one.
	c := p.Sampler("cell", 0, 7)
	feed(c, 1000)
	if diff := a.Len() - c.Len(); diff < -1 || diff > 1 {
		t.Fatalf("phase shift changed sample count by %d", diff)
	}
	if reflect.DeepEqual(a.Samples(), c.Samples()) {
		t.Fatal("different seeds produced identical sample streams (phase not applied)")
	}
}

func TestSamplerResetRewindsPhase(t *testing.T) {
	p := &Profile{period: 8, streams: make(map[CellKey][][]Sample)}
	a := p.Sampler("cell", 0, 3)
	feed(a, 500) // warmup traffic
	a.Reset()
	feed(a, 1000)
	b := p.Sampler("cell", 0, 3)
	feed(b, 1000)
	if !reflect.DeepEqual(a.Samples(), b.Samples()) {
		t.Fatal("Reset did not rewind the stride to its seeded phase")
	}
}

func TestEnableLifecycle(t *testing.T) {
	if Enabled() != nil {
		t.Fatal("profile active before Enable")
	}
	p := Enable(0)
	if p.Period() != DefaultPeriod {
		t.Fatalf("period = %d, want DefaultPeriod %d", p.Period(), DefaultPeriod)
	}
	if Enabled() != p {
		t.Fatal("Enabled() did not return the installed profile")
	}
	p2 := Enable(16)
	if Enabled() != p2 {
		t.Fatal("Enable did not replace the active profile")
	}
	p.Stop() // stale handle must not deactivate the newer profile
	if Enabled() != p2 {
		t.Fatal("stale Stop deactivated the newer profile")
	}
	p2.Stop()
	if Enabled() != nil {
		t.Fatal("Stop did not deactivate the profile")
	}
	p2.Stop() // idempotent
}

func TestSnapshotCanonicalOrder(t *testing.T) {
	// Commit the same two cells in two different orders; Dumps must match.
	build := func(order []int) Dump {
		p := Enable(4)
		defer p.Stop()
		samplers := []*Sampler{
			p.Sampler("b/cell", 0, 1),
			p.Sampler("a/cell", 1, 2),
			p.Sampler("a/cell", 0, 3),
		}
		for i, s := range samplers {
			feed(s, 100+10*i)
		}
		for _, i := range order {
			p.Commit(samplers[i])
		}
		return p.Snapshot()
	}
	d1 := build([]int{0, 1, 2})
	d2 := build([]int{2, 0, 1})
	if !reflect.DeepEqual(d1, d2) {
		t.Fatal("Snapshot depends on commit order")
	}
	wantCells := []CellKey{{"a/cell", 0}, {"a/cell", 1}, {"b/cell", 0}}
	for i, c := range d1.Cells {
		if (CellKey{c.Cell, c.Tenant}) != wantCells[i] {
			t.Fatalf("cell %d = %s/%d, want %v", i, c.Cell, c.Tenant, wantCells[i])
		}
	}
}

func TestSnapshotDuplicateStreamsSorted(t *testing.T) {
	// Two distinct streams under one key must concatenate in
	// content-sorted order regardless of commit order.
	build := func(swap bool) Dump {
		p := Enable(2)
		defer p.Stop()
		a := p.Sampler("cell", 0, 0)
		b := p.Sampler("cell", 0, 0)
		feed(a, 10)
		for i := 100; i < 110; i++ { // different content
			b.Offer(false, "DS", uint64(i), addr.Page2M, ClassWalk1D, 4, 40, 1)
		}
		if swap {
			p.Commit(b)
			p.Commit(a)
		} else {
			p.Commit(a)
			p.Commit(b)
		}
		return p.Snapshot()
	}
	if !reflect.DeepEqual(build(false), build(true)) {
		t.Fatal("duplicate-key streams not canonically ordered")
	}
}

func TestQuantileExact(t *testing.T) {
	var q Quantile
	// 1..100, each once: nearest-rank percentiles are exact values.
	for i := uint64(1); i <= 100; i++ {
		q.Add(i)
	}
	for _, tc := range []struct {
		p    float64
		want uint64
	}{{0.50, 50}, {0.90, 90}, {0.99, 99}, {1.0, 100}, {0.0, 1}} {
		if got := q.Percentile(tc.p); got != tc.want {
			t.Errorf("Percentile(%v) = %d, want %d", tc.p, got, tc.want)
		}
	}
	if q.Max() != 100 {
		t.Errorf("Max = %d, want 100", q.Max())
	}
	var empty Quantile
	if empty.Percentile(0.5) != 0 || empty.Count() != 0 {
		t.Error("empty quantile not zero")
	}
}

func TestMissClassRoundtrip(t *testing.T) {
	for _, c := range MissClasses() {
		got, ok := ParseMissClass(c.String())
		if !ok || got != c {
			t.Errorf("ParseMissClass(%q) = %v,%v", c.String(), got, ok)
		}
	}
	if _, ok := ParseMissClass("bogus"); ok {
		t.Error("ParseMissClass accepted bogus class")
	}
	if MissClass(200).String() != "unknown" {
		t.Error("out-of-range class did not stringify as unknown")
	}
}

func TestFileRoundtrip(t *testing.T) {
	p := Enable(16)
	defer p.Stop()
	s := p.Sampler("gups/4K+4K", 0, 42)
	feed(s, 5000)
	s2 := p.Sampler("seq/2M+2M", 3, 7)
	for i := 0; i < 300; i++ {
		s2.Offer(false, "VMD", uint64(i)<<9, addr.Page2M, ClassWalkVMMOnly, 12, 60, 3)
	}
	p.Commit(s)
	p.Commit(s2)
	d := p.Snapshot()

	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Fatal("file roundtrip changed the dump")
	}

	// Byte determinism: re-encoding yields identical bytes.
	var buf2 bytes.Buffer
	if err := Write(&buf2, d); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("Write is not byte-deterministic")
	}
}

func TestReadRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"empty":          "",
		"wrong format":   `{"format":"other","schema_version":1,"period":64}` + "\n",
		"future version": `{"format":"vdirect-walkprof","schema_version":99,"period":64}` + "\n",
		"zero period":    `{"format":"vdirect-walkprof","schema_version":1,"period":0}` + "\n",
		"bad class": `{"format":"vdirect-walkprof","schema_version":1,"period":64}` + "\n" +
			`{"cell":"c","tenant":0,"scheme":"Base","class":"nope","vpn":1,"size":"4K","refs":1,"cycles":1,"asid":0}` + "\n",
		"bad size": `{"format":"vdirect-walkprof","schema_version":1,"period":64}` + "\n" +
			`{"cell":"c","tenant":0,"scheme":"Base","class":"walk-1d","vpn":1,"size":"8K","refs":1,"cycles":1,"asid":0}` + "\n",
	}
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: Read accepted invalid input", name)
		}
	}
}

func testDump() Dump {
	p := Enable(8)
	defer p.Stop()
	a := p.Sampler("gups/4K+4K", 0, 1)
	for i := 0; i < 2000; i++ {
		cls := ClassWalkNeither
		if i%5 == 0 {
			cls = ClassL2Hit
		}
		a.Offer(false, "Base", uint64(i*977)%(1<<20), addr.Page4K, cls, 24, uint64(50+i%40), 0)
	}
	b := p.Sampler("gups/4K+4K", 1, 2)
	for i := 0; i < 800; i++ {
		b.Offer(false, "Dual", uint64(i), addr.Page4K, ClassZeroD, 0, 1, 2)
	}
	p.Commit(a)
	p.Commit(b)
	return p.Snapshot()
}

func TestAttributionMatchesSamples(t *testing.T) {
	d := testDump()
	schemes, cells := Attribution(d)
	var total uint64
	for _, a := range schemes {
		total += a.Samples
		if a.EstRefs(d.Period) != a.Refs*d.Period {
			t.Error("EstRefs not period-scaled")
		}
	}
	if int(total) != d.NumSamples() {
		t.Fatalf("scheme attribution covers %d samples, dump has %d", total, d.NumSamples())
	}
	var cellTotal uint64
	for _, c := range cells {
		cellTotal += c.Samples
	}
	if int(cellTotal) != d.NumSamples() {
		t.Fatalf("cell attribution covers %d samples, dump has %d", cellTotal, d.NumSamples())
	}
}

func TestTopPagesBounded(t *testing.T) {
	d := testDump()
	top := TopPages(d, 5)
	if len(top) != 5 {
		t.Fatalf("TopPages(5) returned %d rows", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Cycles > top[i-1].Cycles {
			t.Fatal("TopPages not sorted by cycles desc")
		}
	}
}

func TestRegionLabels(t *testing.T) {
	if RegionBucket(0) != 0 {
		t.Fatal("VPN 0 bucket")
	}
	if got := RegionLabel(0); got != "[0,4K)" {
		t.Errorf("bucket 0 label = %q", got)
	}
	if got := RegionLabel(RegionBucket(1)); got != "[4K,8K)" {
		t.Errorf("bucket for VPN 1 label = %q", got)
	}
	// VPN 2^18 = 1G boundary: bucket 19 covers [512M,1G).
	if got := RegionLabel(RegionBucket(1 << 18)); got != "[1G,2G)" {
		t.Errorf("VPN 2^18 label = %q", got)
	}
}

func TestReportAndCollapsedDeterministic(t *testing.T) {
	d := testDump()
	r1, r2 := Report(d, 10), Report(d, 10)
	if r1 != r2 {
		t.Fatal("Report not deterministic")
	}
	for _, want := range []string{"per-scheme cost attribution", "hot pages", "heatmap", "percentiles"} {
		if !strings.Contains(r1, want) {
			t.Errorf("Report missing %q section", want)
		}
	}
	c := Collapsed(d)
	if c != Collapsed(d) {
		t.Fatal("Collapsed not deterministic")
	}
	if !strings.Contains(c, "gups/4K+4K;Base;") {
		t.Errorf("Collapsed missing expected frame prefix:\n%s", c)
	}
	if !strings.Contains(c, "gups/4K+4K#1;Dual;zero-d;") {
		t.Errorf("Collapsed missing tenant-tagged frame:\n%s", c)
	}
	for _, line := range strings.Split(strings.TrimSpace(c), "\n") {
		if !strings.Contains(line, " ") || strings.Count(line, ";") != 3 {
			t.Errorf("malformed folded line %q", line)
		}
	}
}

func TestSummarize(t *testing.T) {
	d := testDump()
	s := Summarize(d)
	if s.Samples != d.NumSamples() || s.Cells != len(d.Cells) || s.Period != d.Period {
		t.Fatalf("Summary totals wrong: %+v", s)
	}
	if len(s.Schemes) == 0 || len(s.Quantiles) == 0 {
		t.Fatal("Summary missing scheme/quantile rows")
	}
}
