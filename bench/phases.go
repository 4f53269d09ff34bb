package main

import (
	"fmt"
	"runtime"
	"time"

	"vdirect/internal/mmu"
)

// wlRun collects one workload's samples, checks and metrics.
type wlRun struct {
	def  *workloadDef
	want string // golden digest at this seed, "" when there is none
	ref  string // digest of the first operation, which every rep must match

	Name      string   `json:"name"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	// Slots and Cells are every sample the end-to-end metrics come from:
	// one per slot of at least slotMin of work, and one per operation.
	Slots []slotSample `json:"slots,omitempty"`
	Cells []cellSample `json:"cells,omitempty"`
	// Metrics are the end-to-end metrics and PerLayer the traced run's.
	Metrics  map[string]metricValue `json:"metrics,omitempty"`
	PerLayer map[string]float64     `json:"per_layer,omitempty"`
	// BlockMin is the fastest time for each block of the trace over the
	// run's operations (see bestRate), in seconds.
	BlockMin []float64 `json:"block_min_s,omitempty"`

	samples  map[string][]float64 // end-to-end metric → samples
	nsPerEv  []float64            // host ns per simulated access, per operation
	measured map[string]bool      // per-layer metrics this workload exercises
	events   uint64               // simulated accesses per operation
}

type slotSample struct {
	Slot       int     `json:"slot"`
	Ops        int     `json:"ops"`
	Events     uint64  `json:"events"`
	RunS       float64 `json:"run_s"`
	AllocBytes uint64  `json:"alloc_bytes"`
}

type cellSample struct {
	Slot   int     `json:"slot"`
	SetupS float64 `json:"setup_s"`
	RunS   float64 `json:"run_s"`
	Events uint64  `json:"events"`
}

// metricValue is one end-to-end metric of one run: the reported Value
// (see summarize) and the median and quartiles of its samples.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

const maxErrors = 8

// fail counts a failed operation and keeps its error.
func (w *wlRun) fail(err error) {
	w.Failed++
	if len(w.Errors) < maxErrors {
		w.Errors = append(w.Errors, err.Error())
	}
}

// check counts an operation and fails it if it errored, drifted from the
// golden, or disagrees with the first rep.
func (w *wlRun) check(o op, err error) bool {
	w.Attempted++
	if err == nil {
		switch {
		case w.want != "" && o.Digest != w.want:
			err = fmt.Errorf("output %.12s drifts from golden %.12s", o.Digest, w.want)
		case w.ref != "" && o.Digest != w.ref:
			err = fmt.Errorf("reps disagree: output %.12s, first rep %.12s", o.Digest, w.ref)
		}
	}
	if err != nil {
		w.fail(err)
		return false
	}
	if w.ref == "" {
		w.ref = o.Digest
	}
	return true
}

// add keeps one successful operation's samples.
func (w *wlRun) add(slot int, o op) {
	if w.BlockMin == nil {
		w.BlockMin = make([]float64, len(o.Blocks))
		for i, d := range o.Blocks {
			w.BlockMin[i] = d.Seconds()
		}
	} else if len(o.Blocks) != len(w.BlockMin) {
		w.fail(fmt.Errorf("replay split into %d blocks, first rep %d", len(o.Blocks), len(w.BlockMin)))
		return
	}
	for i, d := range o.Blocks {
		w.BlockMin[i] = min(w.BlockMin[i], d.Seconds())
	}
	w.events = o.Events
	w.Cells = append(w.Cells, cellSample{Slot: slot, SetupS: o.Setup.Seconds(), RunS: o.Run.Seconds(), Events: o.Events})
	w.samples["events_per_s"] = append(w.samples["events_per_s"], float64(o.Events)/o.Run.Seconds())
	w.samples["setup_s"] = append(w.samples["setup_s"], o.Setup.Seconds())
	w.nsPerEv = append(w.nsPerEv, nsPerEvent(o))
}

func nsPerEvent(o op) float64 { return float64(o.Run.Nanoseconds()) / float64(o.Events) }

// bestRate is the events per second with each block of the trace
// replayed as fast as the run ever replayed it. Every operation replays
// the same blocks, so this is the run's best operation, assembled from
// quiet moments shorter than a whole operation; NaN when no operation
// succeeded.
func (w *wlRun) bestRate() float64 {
	s := 0.0
	for _, d := range w.BlockMin {
		s += d
	}
	return float64(w.events) / s
}

// e2e is the untraced phase. Workloads run round-robin, one slot each per
// round, so host drift hits them all alike. Each first warms up for
// c.warmup, unmeasured: the heap grows to its working size and lazy
// set-up finishes, and the first operation fixes the output every later
// rep must reproduce.
func e2e(c *config, runs []*wlRun) {
	for _, w := range runs {
		for t0 := time.Now(); w.Attempted == 0 || time.Since(t0) < c.warmup; {
			o, err := runOp(w.def, c, false)
			w.check(o, err)
		}
	}
	deadline := time.Now().Add(c.seconds)
	for {
		ran := false
		for _, w := range runs {
			if len(w.Slots) >= c.minSlots && !time.Now().Before(deadline) {
				continue
			}
			w.slot(c)
			ran = true
		}
		if !ran {
			break
		}
	}
	// Host time is reported at its best: every operation does the same,
	// deterministic work, and other tenants' load on the host's shared
	// caches and memory only ever adds time to it, so the fastest of a
	// run's operations reads the program's own cost, while the median
	// reads how loaded the host was (README.md, "Threads and noise").
	// Allocation does not depend on the host's load: a plain median.
	for _, w := range runs {
		value := map[string]float64{
			"events_per_s": w.bestRate(),
			"setup_s":      percentile(w.samples["setup_s"], 0),
			"alloc_mb":     median(w.samples["alloc_mb"]),
		}
		w.Metrics = map[string]metricValue{}
		for _, m := range endToEnd {
			w.Metrics[m.Name] = summarize(m, value[m.Name], w.samples[m.Name])
		}
	}
}

// slot runs operations until at least c.slotMin of work is done. Memory
// statistics stop the world, so they are read only at slot boundaries.
func (w *wlRun) slot(c *config) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s := slotSample{Slot: len(w.Slots)}
	t0 := time.Now()
	for s.Ops == 0 || time.Since(t0) < c.slotMin {
		o, err := runOp(w.def, c, false)
		s.Ops++
		if !w.check(o, err) {
			continue
		}
		s.Events += o.Events
		s.RunS += o.Run.Seconds()
		w.add(s.Slot, o)
	}
	runtime.ReadMemStats(&m1)
	s.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	w.samples["alloc_mb"] = append(w.samples["alloc_mb"], float64(s.AllocBytes)/1e6/float64(s.Ops))
	w.Slots = append(w.Slots, s)
}

// moreReps reports whether the traced phase should pair one more traced
// operation with an untraced one: until it has run for c.seconds, and at
// least 5 times (1 with -quick).
func moreReps(c *config, done int, start time.Time) bool {
	least := 5
	if c.quick {
		least = 1
	}
	return done < least || time.Since(start) < c.seconds
}

// tracePhase runs each workload traced and fills its per-layer metrics.
func tracePhase(c *config, runs []*wlRun) {
	for _, w := range runs {
		w.PerLayer = map[string]float64{}
		for _, m := range perLayer {
			w.PerLayer[m.Name] = 0
		}
		w.measured = map[string]bool{}
		traceCell(c, w)
	}
}

// set records a measured per-layer value.
func (w *wlRun) set(name string, v float64) {
	if _, ok := metricByName(perLayer, name); !ok {
		panic("bench: unknown per-layer metric " + name)
	}
	w.PerLayer[name] = v
	w.measured[name] = true
}

// setMedians records the median of each list of per-rep values.
func (w *wlRun) setMedians(per map[string][]float64) {
	for name, xs := range per {
		w.set(name, median(xs))
	}
}

// setCounts records exact work per 1k simulated accesses.
func (w *wlRun) setCounts(st mmu.Stats, accesses uint64) {
	pk := func(n uint64) float64 { return 1000 * float64(n) / float64(accesses) }
	w.set("mmu.l1_miss_pk", pk(st.L1Misses))
	w.set("mmu.l2_miss_pk", pk(st.L2Misses))
	w.set("mmu.walks_pk", pk(st.Walks))
	w.set("mmu.walk_refs_pk", pk(st.WalkMemRefs))
	w.set("mmu.ntlb_probes_pk", pk(st.NestedTLBHits+st.NestedTLBMisses))
	w.set("mmu.nested_walks_pk", pk(st.NestedWalks))
	w.set("mmu.zerod_pk", pk(st.ZeroDWalks))
	w.set("mmu.seg_checks_pk", pk(st.SegmentChecks))
	w.set("escape.probes_pk", pk(st.EscapeProbes))
	w.set("escape.taken_pk", pk(st.EscapeTaken))
	w.set("guestos.faults_pk", pk(st.GuestFaults))
}

// setRungs records the ladder's per-layer costs.
func (w *wlRun) setRungs(r rungs) {
	w.set("replay.engine_ns_per_event", r.Engine)
	w.set("tlb.l1_ns_per_probe", r.L1)
	w.set("tlb.l2_ns_per_probe", r.L2)
	w.set("pagetable.walk_ns", r.Walk)
	w.set("ptecache.ns_per_access", r.PTE)
	w.set("escape.ns_per_probe", r.Escape)
	w.set("physmem.alloc_contig_us", r.AllocContigUS)
}

// overhead records the cost of tracing or observing as metric: host time
// per event of the traced or observed operations vs the plain ones.
func (w *wlRun) overhead(metric string, slower, plain []float64) {
	if len(slower) > 0 && len(plain) > 0 {
		w.set(metric, 100*(median(slower)/median(plain)-1))
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// traceCell pairs untraced operations with traced ones through the
// mirror stack, and with observed ones (a telemetry run and 1-in-64 walk
// sampling, under which every miss leaves the fused 2D walk for the
// general path), whose outputs must all match; then it climbs the ladder
// on the last traced stack.
func traceCell(c *config, w *wlRun) {
	per := map[string][]float64{}
	var traced, untraced, observed, translate []float64
	var last *tracedCell
	for i, start := 0, time.Now(); moreReps(c, i, start); i++ {
		o, err := runOp(w.def, c, false)
		if w.check(o, err) {
			untraced = append(untraced, nsPerEvent(o))
		}
		o, err = runOp(w.def, c, true)
		if w.check(o, err) {
			observed = append(observed, nsPerEvent(o))
		}
		runtime.GC()
		tc, err := cellTraced(w.def, sizing(c.quick), c.seed, c.tr)
		if !w.check(tc.op, err) {
			continue
		}
		traced = append(traced, nsPerEvent(tc.op))
		tot := totalsByName(c.tr.ofTrace(tc.Trace))
		ev := float64(tc.Events)
		tns := float64(tot["mmu.TranslateBlock"].Dur.Nanoseconds())
		per["workload.build_ms"] = append(per["workload.build_ms"], ms(tot["workload.New"].Dur))
		per["workload.gen_ns_per_event"] = append(per["workload.gen_ns_per_event"], float64(tot["workload.NextBlock"].Dur.Nanoseconds())/ev)
		per["replay.self_ns_per_event"] = append(per["replay.self_ns_per_event"], float64(tot["replay.Run"].Self.Nanoseconds())/ev)
		per["experiments.build_ms"] = append(per["experiments.build_ms"], ms(tot["experiments.build"].Dur))
		per["mmu.translate_ns_per_event"] = append(per["mmu.translate_ns_per_event"], tns/float64(tc.Accesses))
		per["mmu.translate_ns_per_miss"] = append(per["mmu.translate_ns_per_miss"], tns/float64(tc.Full.L1Misses))
		translate = append(translate, tns)
		last = &tc
	}
	if last == nil {
		return
	}
	w.setMedians(per)
	w.setCounts(last.Result.Stats, last.Result.Accesses)
	w.set("tlb.l2_evictions_pk", 1000*float64(last.L2Evictions)/float64(last.Accesses))
	w.overhead("bench.trace_overhead_pct", traced, untraced)
	w.overhead("bench.observe_overhead_pct", observed, untraced)
	last.w.tr = nil // the ladder's own replays are not spans of the cell
	r := measureLadder(last.w, last.stack.proc.PT, last.stack.m, c.seed)
	w.setRungs(r)
	printLadder(c.out, w.Name, r, last.Full, time.Duration(median(translate)))
}
