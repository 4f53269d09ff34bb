package replay_test

import (
	"hash/fnv"
	"testing"

	"vdirect/internal/addr"
	"vdirect/internal/replay"
	"vdirect/internal/trace"
)

// perEventSlice embeds the Generator interface, so its method set omits
// NextBlock and the engine falls back to the per-event Next shim.
type perEventSlice struct{ trace.Generator }

// fuzzDigest replays g and hashes every event the hooks observe, in
// order. quanta supplies the Step limit per iteration (nil means one
// Run call); block routes accesses through the batch AccessBlock hook
// instead of the per-event Access hook. The returned serviced total
// must equal Counts().Accesses.
func fuzzDigest(t *testing.T, g trace.Generator, cfg replay.Config, quanta func() int, block bool) (uint64, replay.Counts, int, int) {
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
	warmups := 0
	hooks := replay.Hooks{Access: obs, Alloc: obs, Free: obs, Warmup: func() { warmups++ }}
	if block {
		hooks.AccessBlock = func(evs []trace.Event) (int, error) {
			for _, ev := range evs {
				obs(ev)
			}
			return len(evs), nil
		}
	}
	eng := replay.New(g, hooks, cfg)
	serviced := 0
	if quanta == nil {
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		serviced = int(eng.Counts().Accesses)
	} else {
		for {
			n, more, err := eng.Step(quanta())
			if err != nil {
				t.Fatal(err)
			}
			serviced += n
			if !more {
				break
			}
		}
	}
	return h.Sum64(), eng.Counts(), serviced, warmups
}

// FuzzEngineStep decodes an arbitrary event trace, a warmup boundary, a
// block size and a stream of scheduling quanta, then replays the same
// trace six ways — block-streaming Run, block-streaming under random
// Step quanta, per-event shim Run, per-event shim stepped, and both Run
// and stepped variants again through the batch AccessBlock hook — and
// requires the observed event stream and all counters to be
// byte-identical. The parallel scheduler's determinism guarantee
// (identical counters at any -j) reduces to exactly this property.
func FuzzEngineStep(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 2, 3, 1, 4, 5, 6, 2, 7, 8, 9})
	f.Add([]byte{2, 3, 0, 1, 2, 0, 0, 1, 2, 1, 3, 0, 128, 2, 3, 0, 128, 0, 9, 9, 9})
	f.Add([]byte{4, 200, 3, 10, 20, 30, 3, 10, 20, 31, 0, 0, 0, 0, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 1<<12 {
			return
		}
		blockSizes := []int{0, 1, 2, 7, 64}
		cfg := replay.Config{
			BlockSize:      blockSizes[int(data[0])%len(blockSizes)],
			WarmupAccesses: uint64(data[1]),
		}
		body := data[2:]
		var evs []trace.Event
		for i := 0; i+3 < len(body); i += 4 {
			ev := trace.Event{VA: addr.GVA((uint64(body[i+1]) << 12) | uint64(body[i+2])<<4)}
			switch body[i] % 4 {
			case 0, 1:
				ev.Kind = trace.Access
				ev.Write = body[i+3]&1 == 1
			case 2:
				ev.Kind = trace.Alloc
				ev.Size = (uint64(body[i+3])%16 + 1) << 12
			case 3:
				ev.Kind = trace.Free
				ev.Size = (uint64(body[i+3])%16 + 1) << 12
			}
			evs = append(evs, ev)
		}
		s := trace.NewSlice("fuzz", evs)

		// Quanta come from the same bytes, so a given input always
		// schedules the same way; 0 occasionally drains the remainder.
		qpos := 0
		quanta := func() int {
			q := int(data[qpos%len(data)] % 9)
			qpos++
			return q
		}

		type run struct {
			digest   uint64
			counts   replay.Counts
			serviced int
			warmups  int
		}
		var runs [6]run
		runs[0].digest, runs[0].counts, runs[0].serviced, runs[0].warmups =
			fuzzDigest(t, s, cfg, nil, false)
		s.Reset()
		runs[1].digest, runs[1].counts, runs[1].serviced, runs[1].warmups =
			fuzzDigest(t, s, cfg, quanta, false)
		runs[2].digest, runs[2].counts, runs[2].serviced, runs[2].warmups =
			fuzzDigest(t, perEventSlice{trace.NewSlice("fuzz", evs)}, cfg, nil, false)
		qpos = 0
		runs[3].digest, runs[3].counts, runs[3].serviced, runs[3].warmups =
			fuzzDigest(t, perEventSlice{trace.NewSlice("fuzz", evs)}, cfg, quanta, false)
		runs[4].digest, runs[4].counts, runs[4].serviced, runs[4].warmups =
			fuzzDigest(t, trace.NewSlice("fuzz", evs), cfg, nil, true)
		qpos = 0
		runs[5].digest, runs[5].counts, runs[5].serviced, runs[5].warmups =
			fuzzDigest(t, trace.NewSlice("fuzz", evs), cfg, quanta, true)
		for i := 1; i < len(runs); i++ {
			if runs[i] != runs[0] {
				t.Fatalf("replay path %d diverged from block Run:\n%+v\n%+v", i, runs[i], runs[0])
			}
		}

		// Counter identities against ground truth from the trace itself.
		c := runs[0].counts
		if c.Events != uint64(s.Len()) {
			t.Fatalf("consumed %d events, trace has %d", c.Events, s.Len())
		}
		var accesses uint64
		for _, ev := range evs {
			if ev.Kind == trace.Access {
				accesses++
			}
		}
		if c.Accesses != accesses {
			t.Fatalf("serviced %d accesses, trace has %d", c.Accesses, accesses)
		}
		if uint64(runs[0].serviced) != c.Accesses {
			t.Fatalf("Step serviced %d, counts say %d", runs[0].serviced, c.Accesses)
		}
		wantMeasured := uint64(0)
		if c.Accesses > cfg.WarmupAccesses {
			wantMeasured = c.Accesses - cfg.WarmupAccesses
		}
		if c.Measured != wantMeasured {
			t.Fatalf("measured %d accesses, want %d (of %d past warmup %d)",
				c.Measured, wantMeasured, c.Accesses, cfg.WarmupAccesses)
		}
		wantWarmups := 0
		if cfg.WarmupAccesses == 0 || c.Accesses >= cfg.WarmupAccesses {
			wantWarmups = 1
		}
		if runs[0].warmups != wantWarmups {
			t.Fatalf("warmup hook fired %d times, want %d", runs[0].warmups, wantWarmups)
		}
	})
}
