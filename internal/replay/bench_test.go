// Replay-throughput benchmarks: the block streaming path versus the
// per-event Next shim, as events/sec. Two levels: the bare engine with
// a minimal hook (isolates the interface-dispatch savings) and a full
// experiment cell (shows the win with the MMU model in the loop).
// EXPERIMENTS.md records the committed numbers.

package replay_test

import (
	"testing"

	"vdirect/internal/experiments"
	"vdirect/internal/replay"
	"vdirect/internal/telemetry"
	"vdirect/internal/telemetry/walkprof"
	"vdirect/internal/trace"
	"vdirect/internal/workload"
)

// benchWorkload is a fixed trace reused across iterations (Reset
// between runs), sized so the buffer refill cost is well exercised.
func benchWorkload(b *testing.B) workload.Workload {
	b.Helper()
	return workload.New("gups", workload.Config{Seed: 1, MemoryMB: 64, Ops: 400000})
}

func runEngine(b *testing.B, g trace.Generator) {
	b.Helper()
	var sink, events uint64
	hook := func(ev trace.Event) error {
		sink += uint64(ev.VA)
		return nil
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Reset()
		eng := replay.New(g, replay.Hooks{Access: hook, Alloc: hook, Free: hook}, replay.Config{})
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
		events += eng.Counts().Events
	}
	b.StopTimer()
	_ = sink
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkEngineBlock streams through NextBlock — the hot path every
// experiment loop now drives.
func BenchmarkEngineBlock(b *testing.B) {
	runEngine(b, benchWorkload(b))
}

// BenchmarkEnginePerEvent forces the Next compatibility shim: one
// interface call per event, the shape of the four pre-refactor loops.
func BenchmarkEnginePerEvent(b *testing.B) {
	runEngine(b, perEventWorkload{benchWorkload(b)})
}

func runCell(b *testing.B, mk func() workload.Workload) {
	b.Helper()
	spec, err := experiments.ParseConfig("4K+4K")
	if err != nil {
		b.Fatal(err)
	}
	spec.Workload = "gups"
	spec.WL = workload.Config{Seed: 1, MemoryMB: 64, Ops: 200000}
	var events uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := mk()
		res, err := experiments.RunWorkload(spec, w)
		if err != nil {
			b.Fatal(err)
		}
		events += res.Stats.Accesses
	}
	b.StopTimer()
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkCellBlock is one full simulation cell (gups under the 2D
// walk) on the block path.
func BenchmarkCellBlock(b *testing.B) {
	spec := workload.Config{Seed: 1, MemoryMB: 64, Ops: 200000}
	runCell(b, func() workload.Workload { return workload.New("gups", spec) })
}

// BenchmarkCellPerEvent is the same cell through the Next shim.
func BenchmarkCellPerEvent(b *testing.B) {
	spec := workload.Config{Seed: 1, MemoryMB: 64, Ops: 200000}
	runCell(b, func() workload.Workload { return perEventWorkload{workload.New("gups", spec)} })
}

// The telemetry overhead pair: the same bare-engine workload with
// telemetry inactive (the default — the engine's meter pointer stays
// nil, so the only cost is one nil check per ~4K-event block) and with
// a run active (one atomic add per block). Enabled must stay within 2%
// of disabled; EXPERIMENTS.md records the committed numbers.
func BenchmarkTelemetryOverheadOff(b *testing.B) {
	if telemetry.Active() {
		b.Fatal("telemetry unexpectedly active")
	}
	runEngine(b, benchWorkload(b))
}

func BenchmarkTelemetryOverheadOn(b *testing.B) {
	run := telemetry.StartRun("bench", nil, false)
	defer run.Stop()
	runEngine(b, benchWorkload(b))
}

// The same comparison with a full simulation cell in the loop: with
// telemetry on, every page walk feeds the cell's WalkProbe shards and
// each completed cell merges them into the shared registry.
func BenchmarkTelemetryCellOff(b *testing.B) {
	if telemetry.Active() {
		b.Fatal("telemetry unexpectedly active")
	}
	spec := workload.Config{Seed: 1, MemoryMB: 64, Ops: 200000}
	runCell(b, func() workload.Workload { return workload.New("gups", spec) })
}

func BenchmarkTelemetryCellOn(b *testing.B) {
	run := telemetry.StartRun("bench", nil, false)
	defer run.Stop()
	spec := workload.Config{Seed: 1, MemoryMB: 64, Ops: 200000}
	runCell(b, func() workload.Workload { return workload.New("gups", spec) })
}

// The walk-sampling pair: the same full cell with sampling off (the
// default — no observer installed, one branch per TLB miss) and
// with 1-in-64 stride sampling recording per-walk samples. Sampled
// must stay within 2% of unsampled; benchgate.sh enforces the pair
// like the rest of the telemetry overhead suite.
func BenchmarkTelemetryOverheadSampledOff(b *testing.B) {
	if walkprof.Enabled() != nil {
		b.Fatal("walk sampling unexpectedly active")
	}
	spec := workload.Config{Seed: 1, MemoryMB: 64, Ops: 200000}
	runCell(b, func() workload.Workload { return workload.New("gups", spec) })
}

func BenchmarkTelemetryOverheadSampledOn(b *testing.B) {
	p := walkprof.Enable(walkprof.DefaultPeriod)
	defer p.Stop()
	spec := workload.Config{Seed: 1, MemoryMB: 64, Ops: 200000}
	runCell(b, func() workload.Workload { return workload.New("gups", spec) })
}
