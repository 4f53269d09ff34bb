package trace

import (
	"encoding/binary"
	"testing"

	"vdirect/internal/addr"
)

// fuzzEvents decodes data into events, 16 bytes each: a kind byte
// (mod 3, bit 7 the Write flag), seven VA bytes, so any VA below 2^56,
// and eight Size bytes, kept for Alloc and Free only since an Access
// stores no Size.
func fuzzEvents(data []byte) []Event {
	var evs []Event
	for ; len(data) >= 16; data = data[16:] {
		ev := Event{
			Kind:  Kind(data[0] & 0x7f % 3),
			Write: data[0]&0x80 != 0,
			VA:    addr.GVA(binary.LittleEndian.Uint64(data[0:8]) >> 8),
		}
		if ev.Kind != Access {
			ev.Size = binary.LittleEndian.Uint64(data[8:16])
		}
		evs = append(evs, ev)
	}
	return evs
}

// drainBlocks reads s from its cursor to its end by NextBlock with a
// buffer of the given size.
func drainBlocks(s *Slice, block int) []Event {
	var out []Event
	buf := make([]Event, block)
	for {
		n := s.NextBlock(buf)
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
	}
}

// drainNext reads s from its cursor to its end by Next.
func drainNext(s *Slice) []Event {
	var out []Event
	for {
		ev, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, ev)
	}
}

func sameEvents(t *testing.T, what string, got, want []Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d events, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: event %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// FuzzSlicePack packs arbitrary events of all three kinds through
// NewSlice and requires them to decode equal to the input by NextBlock
// at block sizes 1, 2, 7 and 4096, by Next, and by the two interleaved
// at block sizes the input picks, across Reset and on a Cursor taken
// mid-read.
func FuzzSlicePack(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{
		0x80, 0x00, 0x10, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		0x01, 0x00, 0x20, 0, 0, 0, 0, 0, 0x00, 0x30, 0, 0, 0, 0, 0, 0,
		0x82, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
	})
	f.Add([]byte{
		0x03, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88,
		0x83, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0,
		0x02, 0x00, 0x40, 0, 0, 0, 0, 0, 0x00, 0x10, 0, 0, 0, 0, 0, 0,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 16<<10 {
			return
		}
		evs := fuzzEvents(data)
		s := NewSlice("fuzz", evs)
		if s.Len() != len(evs) {
			t.Fatalf("Len = %d, want %d", s.Len(), len(evs))
		}
		for _, block := range []int{1, 2, 7, 4096} {
			s.Reset()
			sameEvents(t, "NextBlock", drainBlocks(s, block), evs)
		}
		s.Reset()
		sameEvents(t, "Next", drainNext(s), evs)

		// Interleave: the input's bytes pick, in turn, one Next or a
		// block of 1–8 events. Halfway through, a Cursor must read the
		// whole trace from the start without moving s.
		s.Reset()
		var got []Event
		buf := make([]Event, 8)
		for i := 0; ; i++ {
			if i == len(evs)/2 {
				sameEvents(t, "Cursor", drainBlocks(s.Cursor(), 3), evs)
			}
			pick := byte(i)
			if len(data) > 0 {
				pick = data[i%len(data)]
			}
			if pick%3 == 0 {
				ev, ok := s.Next()
				if !ok {
					break
				}
				got = append(got, ev)
				continue
			}
			n := s.NextBlock(buf[:1+int(pick)%8])
			if n == 0 {
				break
			}
			got = append(got, buf[:n]...)
		}
		sameEvents(t, "interleaved", got, evs)
	})
}

// TestPackLimits: Pack panics on a VA of 2^56 and on a Kind past Free,
// invariant breaks it must not truncate silently, and the largest VA
// round-trips with every Kind and Write flag.
func TestPackLimits(t *testing.T) {
	for _, c := range []struct {
		name string
		va   addr.GVA
		k    Kind
	}{
		{"VA 2^56", 1 << 56, Access},
		{"Kind(3)", 0x1000, Kind(3)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Pack(%s) did not panic", c.name)
				}
			}()
			Pack(c.va, c.k, false)
		}()
	}
	// The largest VA and every Kind pack, with and without Write.
	for _, k := range []Kind{Access, Alloc, Free} {
		for _, w := range []bool{false, true} {
			want := Event{VA: 1<<56 - 1, Kind: k, Write: w}
			if k != Access {
				want.Size = 1<<64 - 1
			}
			if got, _ := decode([]uint64{Pack(want.VA, k, w), want.Size}, 0); got != want {
				t.Errorf("decode(Pack(2^56-1, %v, %v)) = %+v", k, w, got)
			}
		}
	}
}

// BenchmarkSliceNextBlock decodes a cactus-hit-sized trace (about 254k
// events, one Alloc per 4096) into a 4096-event block, against "copy",
// the cost of copying the same events out of an unpacked []Event; both
// report ns per event.
func BenchmarkSliceNextBlock(b *testing.B) {
	evs := make([]Event, 254000)
	for i := range evs {
		evs[i] = Event{VA: addr.GVA(0x4000_0000 + i*8), Write: i%3 == 0}
		if i%4096 == 4095 {
			evs[i] = Event{VA: 0x2000_0000, Kind: Alloc, Size: 64 << 10}
		}
	}
	buf := make([]Event, 4096)
	b.Run("packed", func(b *testing.B) {
		s := NewSlice("bench", evs)
		for i := 0; i < b.N; i++ {
			s.Reset()
			for s.NextBlock(buf) > 0 {
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(evs)), "ns/event")
	})
	b.Run("copy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for p := 0; p < len(evs); p += copy(buf, evs[p:]) {
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(evs)), "ns/event")
	})
}
