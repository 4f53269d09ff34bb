// Golden equivalence: the block streaming path must be byte-identical
// to the per-event Next shim — the determinism guarantee the parallel
// scheduler relies on (identical counters at any -j) has to survive
// the replay refactor. scripts/check.sh runs this suite under -race
// before the full tests.

package replay_test

import (
	"hash/fnv"
	"reflect"
	"testing"

	"vdirect/internal/experiments"
	"vdirect/internal/replay"
	"vdirect/internal/trace"
	"vdirect/internal/workload"
)

// perEventWorkload embeds the Workload interface, so its method set
// omits NextBlock: the engine falls back to the per-event Next shim.
type perEventWorkload struct{ workload.Workload }

func TestEquivalenceResultStats(t *testing.T) {
	// Every workload under the modes with distinct replay behaviour:
	// native paging, the full 2D walk, and both proposal fast paths.
	configs := []string{"4K", "4K+4K", "DD", "4K+VD"}
	for _, name := range workload.Names() {
		for _, label := range configs {
			spec, err := experiments.ParseConfig(label)
			if err != nil {
				t.Fatal(err)
			}
			spec.Workload = name
			spec.WL = workload.Config{Seed: 5, MemoryMB: 24, Ops: 30000}

			w := workload.New(name, spec.WL)
			if _, ok := trace.Generator(w).(trace.BlockGenerator); !ok {
				t.Fatalf("%s: workload lost the block fast path", name)
			}
			block, err := experiments.RunWorkload(spec, w)
			if err != nil {
				t.Fatalf("%s/%s block path: %v", name, label, err)
			}
			shim, err := experiments.RunWorkload(spec, perEventWorkload{workload.New(name, spec.WL)})
			if err != nil {
				t.Fatalf("%s/%s per-event path: %v", name, label, err)
			}
			if !reflect.DeepEqual(block, shim) {
				t.Errorf("%s/%s: block and per-event results diverge:\nblock: %+v\nshim:  %+v",
					name, label, block, shim)
			}
		}
	}
}

// eventDigest replays g through eng-owned hooks and digests every event
// the hooks observe, in order.
func eventDigest(t *testing.T, g trace.Generator, quantum int) (uint64, replay.Counts) {
	t.Helper()
	h := fnv.New64a()
	var b [26]byte
	obs := func(ev trace.Event) error {
		b[0] = byte(ev.Kind)
		if ev.Write {
			b[1] = 1
		} else {
			b[1] = 0
		}
		for i := 0; i < 8; i++ {
			b[2+i] = byte(uint64(ev.VA) >> (8 * i))
			b[10+i] = byte(ev.Size >> (8 * i))
		}
		h.Write(b[:])
		return nil
	}
	eng := replay.New(g, replay.Hooks{Access: obs, Alloc: obs, Free: obs},
		replay.Config{WarmupAccesses: 1000})
	if quantum <= 0 {
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	} else {
		for {
			_, more, err := eng.Step(quantum)
			if err != nil {
				t.Fatal(err)
			}
			if !more {
				break
			}
		}
	}
	return h.Sum64(), eng.Counts()
}

func TestEquivalenceEventStream(t *testing.T) {
	cfg := workload.Config{Seed: 11, MemoryMB: 16, Ops: 20000}
	for _, name := range workload.Names() {
		blockSum, blockCounts := eventDigest(t, workload.New(name, cfg), 0)
		shimSum, shimCounts := eventDigest(t, perEventWorkload{workload.New(name, cfg)}, 0)
		if blockSum != shimSum || blockCounts != shimCounts {
			t.Errorf("%s: block vs per-event stream diverge: %x/%+v vs %x/%+v",
				name, blockSum, blockCounts, shimSum, shimCounts)
		}
		// Quantum-stepped replay (the host model's driving
		// pattern) must see the same stream as a straight drain.
		qSum, qCounts := eventDigest(t, workload.New(name, cfg), 777)
		if qSum != blockSum || qCounts != blockCounts {
			t.Errorf("%s: quantum-stepped stream diverges: %x/%+v vs %x/%+v",
				name, qSum, qCounts, blockSum, blockCounts)
		}
	}
}
