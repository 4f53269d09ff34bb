package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"os"
	"strings"
	"testing"

	"vdirect/internal/trace"
)

var updateDigests = flag.Bool("update-digests", false,
	"rewrite testdata/trace_digests.txt from the current generators")

// digestSizings are experiments.Small's and experiments.Medium's
// workload sizings (this package cannot import experiments), with the
// seeds the digests are pinned at.
var digestSizings = []struct {
	label string
	cfg   Config
}{
	{"small/seed1", Config{Seed: 1, MemoryMB: 24, Ops: 50000}},
	{"small/seed2", Config{Seed: 2, MemoryMB: 24, Ops: 50000}},
	{"medium/seed1", Config{Seed: 1, MemoryMB: 96, Ops: 250000}},
}

// eventDigest folds one event into h field by field, so the digest
// depends on what a consumer reads, not on how a trace stores it.
func eventDigest(h hash.Hash, ev trace.Event) {
	var b [18]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(ev.VA))
	binary.LittleEndian.PutUint64(b[8:], ev.Size)
	b[16] = byte(ev.Kind)
	if ev.Write {
		b[17] = 1
	}
	h.Write(b[:])
}

// drainDigest reads w from its start to its end, by NextBlock with a
// block of the given size or, when block is 0, by Next, and returns the
// event count and the stream's sha256.
func drainDigest(t *testing.T, w Workload, block int) (int, string) {
	t.Helper()
	w.Reset()
	h := sha256.New()
	n := 0
	if block == 0 {
		for {
			ev, ok := w.Next()
			if !ok {
				break
			}
			eventDigest(h, ev)
			n++
		}
	} else {
		bg, ok := w.(trace.BlockGenerator)
		if !ok {
			t.Fatalf("%s is not a BlockGenerator", w.Name())
		}
		buf := make([]trace.Event, block)
		for {
			k := bg.NextBlock(buf)
			if k == 0 {
				break
			}
			for _, ev := range buf[:k] {
				eventDigest(h, ev)
			}
			n += k
		}
	}
	return n, hex.EncodeToString(h.Sum(nil))
}

// TestWorkloadTraceDigests pins every registered workload's event
// stream at Small sizing (seeds 1 and 2) and Medium sizing (seed 1) by
// its sha256, drained three ways: NextBlock with a 4096-event buffer,
// NextBlock with a 7-event buffer, and Next. All three must agree, and
// agree with testdata/trace_digests.txt, so a change to how traces are
// built or stored cannot move a single event unnoticed. Regenerate the
// file with -update-digests only for an intended trace change.
func TestWorkloadTraceDigests(t *testing.T) {
	const path = "testdata/trace_digests.txt"
	var got strings.Builder
	for _, s := range digestSizings {
		for _, name := range Names() {
			w := New(name, s.cfg)
			n, sum := drainDigest(t, w, 4096)
			for _, block := range []int{7, 0} {
				if m, other := drainDigest(t, w, block); m != n || other != sum {
					t.Errorf("%s %s: block %d drains %d events (%s), block 4096 drains %d (%s)",
						name, s.label, block, m, other, n, sum)
				}
			}
			fmt.Fprintf(&got, "%s %s %d %s\n", s.label, name, n, sum)
		}
	}
	if *updateDigests {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("trace digests differ from %s\ngot:\n%s\nwant:\n%s", path, got.String(), want)
	}
}
