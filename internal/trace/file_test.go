package trace

import (
	"bytes"
	"encoding/hex"
	"strings"
	"testing"

	"vdirect/internal/addr"
)

func TestTraceFileRoundTrip(t *testing.T) {
	evs := []Event{
		{Kind: Access, VA: 0x40001234},
		{Kind: Access, VA: 0x40005678, Write: true},
		{Kind: Alloc, VA: 0x20000000, Size: 64 << 10},
		{Kind: Access, VA: 0x20000100, Write: true},
		{Kind: Free, VA: 0x20000000, Size: 64 << 10},
	}
	orig := NewSlice("demo", evs)
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name() != "demo" || got.Len() != len(evs) {
		t.Fatalf("meta: %q %d", got.Name(), got.Len())
	}
	for i := range evs {
		ev, ok := got.Next()
		if !ok || ev != evs[i] {
			t.Fatalf("event %d: %+v != %+v", i, ev, evs[i])
		}
	}
	if got.WorkingSet() != orig.WorkingSet() {
		t.Errorf("working set %v != %v", got.WorkingSet(), orig.WorkingSet())
	}
}

// TestTraceFileBytes pins the on-disk format byte for byte. WriteTo
// encodes each field explicitly, so the stream must not follow Event's
// in-memory layout.
func TestTraceFileBytes(t *testing.T) {
	evs := []Event{
		{Kind: Access, VA: 0x40001234},
		{Kind: Access, VA: 0x40005678, Write: true},
		{Kind: Alloc, VA: 0x20000000, Size: 64 << 10},
	}
	var buf bytes.Buffer
	if _, err := NewSlice("demo", evs).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	want := "7664747261636531" + "04000000" + "64656d6f" + "0300000000000000" +
		"00" + "3412004000000000" +
		"10" + "7856004000000000" +
		"02" + "0000002000000000" + "0000010000000000"
	if got := hex.EncodeToString(buf.Bytes()); got != want {
		t.Fatalf("stream\n got %s\nwant %s", got, want)
	}
}

func TestTraceFileLargeRoundTrip(t *testing.T) {
	r := NewRand(3)
	evs := make([]Event, 50000)
	for i := range evs {
		evs[i] = Event{Kind: Access, VA: addr.GVA(r.Uint64n(1 << 40)), Write: r.Uint64n(2) == 0}
	}
	orig := NewSlice("big", evs)
	var buf bytes.Buffer
	n, err := orig.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Access events pack to 9 bytes + small header.
	if n > int64(len(evs))*9+64 {
		t.Errorf("encoding too large: %d bytes", n)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != len(evs) {
		t.Fatalf("len %d", got.Len())
	}
	for i := 0; i < len(evs); i++ {
		ev, _ := got.Next()
		if ev != evs[i] {
			t.Fatalf("event %d mismatch", i)
		}
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"short",
		"notmagic" + strings.Repeat("x", 64),
	}
	for _, c := range cases {
		if _, err := ReadTrace(strings.NewReader(c)); err == nil {
			t.Errorf("garbage %q accepted", c[:min(8, len(c))])
		}
	}
	// Valid magic, truncated body.
	var buf bytes.Buffer
	NewSlice("x", []Event{{Kind: Access, VA: 1}}).WriteTo(&buf)
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, err := ReadTrace(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated stream accepted")
	}
	// Implausible name length.
	bad := append([]byte{}, buf.Bytes()[:8]...)
	bad = append(bad, 0xff, 0xff, 0xff, 0xff)
	if _, err := ReadTrace(bytes.NewReader(bad)); err == nil {
		t.Error("huge name accepted")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestReadTraceHugeCountShortStream: a header claiming 2^32 events on a
// stream that ends right after it must fail with an error, without
// first allocating room for the claimed count.
func TestReadTraceHugeCountShortStream(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(fileMagic[:])
	buf.Write([]byte{0, 0, 0, 0})             // name length 0
	buf.Write([]byte{0, 0, 0, 0, 1, 0, 0, 0}) // event count 2^32
	if buf.Len() != 20 {
		t.Fatalf("stream is %d bytes, want 20", buf.Len())
	}
	if _, err := ReadTrace(&buf); err == nil {
		t.Fatal("stream ending after a 2^32-event header accepted")
	}
}

// FuzzReadTrace: arbitrary bytes are rejected with an error, never a
// panic or an allocation sized by the header, and any stream ReadTrace
// accepts survives a WriteTo/ReadTrace round trip unchanged.
func FuzzReadTrace(f *testing.F) {
	var buf bytes.Buffer
	NewSlice("seed", []Event{
		{Kind: Access, VA: 0x40001234},
		{Kind: Access, VA: 0x40005678, Write: true},
		{Kind: Alloc, VA: 0x20000000, Size: 64 << 10},
		{Kind: Free, VA: 0x20000000, Size: 64 << 10},
	}).WriteTo(&buf)
	f.Add(buf.Bytes())
	f.Add(append(append([]byte{}, fileMagic[:]...), 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0))
	f.Add([]byte("notmagic"))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if _, err := s.WriteTo(&out); err != nil {
			t.Fatalf("re-serializing an accepted trace: %v", err)
		}
		back, err := ReadTrace(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if back.Name() != s.Name() || back.Len() != s.Len() {
			t.Fatalf("round trip meta: %q/%d, want %q/%d", back.Name(), back.Len(), s.Name(), s.Len())
		}
		for {
			want, ok := s.Next()
			got, _ := back.Next()
			if !ok {
				break
			}
			if got != want {
				t.Fatalf("round trip event %+v, want %+v", got, want)
			}
		}
	})
}
