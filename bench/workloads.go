package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"vdirect/internal/experiments"
	"vdirect/internal/mmu"
	"vdirect/internal/telemetry"
	"vdirect/internal/telemetry/walkprof"
	"vdirect/internal/trace"
	"vdirect/internal/workload"
)

// workloadDef is one benchmark workload, a single experiments cell, and
// why it exists.
type workloadDef struct {
	Name string
	Why  string
	// WL is the Table V workload and Config the figure bar label.
	WL, Config string
}

// Three cells, each in a run long enough to catch the host's quiet
// moments (see README.md, "Threads and noise"), within the benchmark's
// time budget. A cell's replay splits into blocks the benchmark can time
// one by one; the medium report (one 21-41 s sample per run) and a whole
// host (hidden inside host.Sim) cannot be split, and spread too widely
// to be gated. The cost of observing is a per-layer metric of each
// cell's traced run.
var workloads = []workloadDef{
	{Name: "gups-2d", WL: "gups", Config: "4K+4K",
		Why: "gups under 4K+4K: half the accesses miss the L1 and take the fused 2D walk, where TLB, page-table, PTE-cache and walk work shows"},
	{Name: "gups-dd", WL: "gups", Config: "DD",
		Why: "the gups-2d miss stream under Dual Direct: misses resolve in 0D past the escape filter, so walk work is bypassed and filter hashing shows"},
	{Name: "cactus-hit", WL: "cactusadm", Config: "4K+4K",
		Why: "cactusadm with 99.5% L1 hits: the batched L1 probe, replay engine and eager trace generation that walk-heavy cells hide"},
}

func workloadByName(name string) (*workloadDef, bool) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// sizing picks the scale: Medium for the benchmark, Small for -quick.
func sizing(quick bool) experiments.Scale {
	if quick {
		return experiments.Small
	}
	return experiments.Medium
}

// cellSpec builds the cell's Spec; the seed drives the trace.
func (d *workloadDef) cellSpec(scale experiments.Scale, seed uint64) (experiments.Spec, error) {
	spec, err := experiments.ParseConfig(d.Config)
	if err != nil {
		return spec, err
	}
	spec.Workload = d.WL
	class := workload.New(d.WL, workload.Config{MemoryMB: 1, Ops: 1}).Class()
	spec.WL = scale.WLConfig(class, seed)
	return spec, nil
}

// blockWorkload is what the replay engine needs to stay on its block
// path: a wrapper that embedded only workload.Workload would hide
// NextBlock and silently fall back to the per-event shim.
type blockWorkload interface {
	workload.Workload
	trace.BlockGenerator
}

// cellWorkload measures a workload from outside. It stamps the time of
// Reset, which RunWorkload calls once, after building the stack and
// before replay, and the time of every NextBlock call after it; with a
// tracer it also records a span per NextBlock.
type cellWorkload struct {
	blockWorkload
	tr    *tracer
	reset time.Time
	marks []time.Time
}

func newCellWorkload(name string, cfg workload.Config, tr *tracer) (*cellWorkload, error) {
	w, ok := workload.New(name, cfg).(blockWorkload)
	if !ok {
		return nil, fmt.Errorf("bench: workload %s does not stream in blocks", name)
	}
	return &cellWorkload{blockWorkload: w, tr: tr}, nil
}

func (w *cellWorkload) Reset() {
	w.reset = time.Now()
	w.marks = w.marks[:0]
	w.blockWorkload.Reset()
}

// blockTimes splits the replay from Reset to end at each NextBlock call:
// one interval per block, covering its generation and the translation of
// the block before it. The same trace always splits the same way.
func (w *cellWorkload) blockTimes(end time.Time) []time.Duration {
	out := make([]time.Duration, 0, len(w.marks)+1)
	prev := w.reset
	for _, m := range append(w.marks, end) {
		out = append(out, m.Sub(prev))
		prev = m
	}
	return out
}

func (w *cellWorkload) NextBlock(buf []trace.Event) int {
	w.marks = append(w.marks, time.Now())
	if w.tr == nil {
		return w.blockWorkload.NextBlock(buf)
	}
	id := w.tr.begin("workload.NextBlock")
	n := w.blockWorkload.NextBlock(buf)
	w.tr.end(id)
	return n
}

// observe starts the telemetry run and walk sampling an observed cell
// runs under, and returns the function that stops both.
func observe() func() {
	run := telemetry.StartRun("bench", nil, false)
	prof := walkprof.Enable(walkprof.DefaultPeriod)
	return func() {
		prof.Stop()
		run.Stop()
	}
}

// op is one measured operation: set-up, then the simulation it feeds.
type op struct {
	Setup, Run time.Duration
	// Blocks splits Run at each block of the trace (blockTimes).
	Blocks []time.Duration
	// Events is the simulated accesses (warmup included).
	Events uint64
	// Digest identifies the operation's output.
	Digest string
}

// runOp runs one untraced operation of d, turning a panic into an error.
// observed runs the cell under a telemetry run with walk sampling.
//
// Each operation starts from a collected heap, outside its timing, so the
// collections it pays for are the ones its own allocation triggers, not
// whatever the operations before it left behind.
func runOp(d *workloadDef, c *config, observed bool) (o op, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	runtime.GC()
	o, _, err = cellOp(d, sizing(c.quick), c.seed, observed)
	return o, err
}

// cellOp runs one cell through experiments.RunWorkload. Set-up is
// workload.New plus the stack build (RunWorkload entry until Reset).
func cellOp(d *workloadDef, scale experiments.Scale, seed uint64, observed bool) (op, experiments.Result, error) {
	spec, err := d.cellSpec(scale, seed)
	if err != nil {
		return op{}, experiments.Result{}, err
	}
	t0 := time.Now()
	w, err := newCellWorkload(spec.Workload, spec.WL, nil)
	if err != nil {
		return op{}, experiments.Result{}, err
	}
	gen := time.Since(t0)
	if observed {
		defer observe()()
	}
	t1 := time.Now()
	res, err := experiments.RunWorkload(spec, w)
	t2 := time.Now()
	if err != nil {
		return op{}, res, err
	}
	if err := checkIdentities(d.Name, res.Stats); err != nil {
		return op{}, res, err
	}
	o := op{Setup: gen + w.reset.Sub(t1), Run: t2.Sub(w.reset), Blocks: w.blockTimes(t2), Events: w.AccessCount(), Digest: digest(res)}
	return o, res, nil
}

// checkIdentities asserts the counter identities every MMU satisfies.
func checkIdentities(name string, st mmu.Stats) error {
	switch {
	case st.Accesses != st.L1Hits+st.L1Misses:
		return fmt.Errorf("%s: accesses %d != L1 hits %d + misses %d", name, st.Accesses, st.L1Hits, st.L1Misses)
	case st.L1Misses != st.ZeroDWalks+st.L2Hits+st.Walks:
		return fmt.Errorf("%s: L1 misses %d != 0D %d + L2 hits %d + walks %d", name, st.L1Misses, st.ZeroDWalks, st.L2Hits, st.Walks)
	case st.EscapeTaken > st.EscapeProbes:
		return fmt.Errorf("%s: escapes taken %d > probes %d", name, st.EscapeTaken, st.EscapeProbes)
	case st.GuestFaults+st.NestedFaults > st.Walks:
		return fmt.Errorf("%s: faults %d+%d > walks %d", name, st.GuestFaults, st.NestedFaults, st.Walks)
	}
	return nil
}

// digest is the sha256 of v's JSON encoding.
func digest(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("bench: encoding output: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// goldens are the recorded outputs at -seed 1: each workload's digest.
type goldens struct {
	Seed      uint64                  `json:"seed"`
	Workloads map[string]goldenOutput `json:"workloads"`
}

type goldenOutput struct {
	SHA256 string `json:"sha256"`
}

// goldenJSON is testdata/golden.json as of the build.
//
//go:embed testdata/golden.json
var goldenJSON []byte

func readGoldens() (*goldens, error) {
	var g goldens
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("bench: parsing testdata/golden.json: %w", err)
	}
	return &g, nil
}

// want returns the digest an operation of d at seed must produce, or ""
// when only rep determinism can be checked.
func (g *goldens) want(d *workloadDef, seed uint64, quick bool) string {
	if g == nil || quick || seed != g.Seed {
		return ""
	}
	return g.Workloads[d.Name].SHA256
}

// record re-records the goldens at seed 1 by running each workload once.
// A golden names only the workloads that exist, so stale entries go.
func record(c *config) error {
	if c.seed != 1 || c.quick {
		return fmt.Errorf("bench: -record needs -seed 1 and Medium sizing")
	}
	g, err := readGoldens()
	if err != nil || g.Workloads == nil {
		g = &goldens{Workloads: map[string]goldenOutput{}}
	}
	for name := range g.Workloads {
		if _, ok := workloadByName(name); !ok {
			delete(g.Workloads, name)
		}
	}
	g.Seed = 1
	for _, d := range c.workloads {
		o, err := runOp(d, c, false)
		if err != nil {
			return fmt.Errorf("bench: recording %s: %w", d.Name, err)
		}
		out := goldenOutput{SHA256: o.Digest}
		g.Workloads[d.Name] = out
		fmt.Fprintf(c.out, "recorded %s %s\n", d.Name, out.SHA256)
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(c.goldenPath, append(data, '\n'), 0o644)
}
