package main

import (
	"math"
	"sort"
)

// metricDef names one metric, its unit and which direction is better.
// Bound is the share of the parent's median by which an end-to-end
// metric may worsen before a change counts as a regression; per-layer
// metrics carry no bound. BENCHMARK.json lists the same table.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd are host-time metrics a user of the simulator sees. Simulated
// counts are per-layer: they move only when the model's work changes.
// The host-time bounds are wide because the host's speed drifts by more
// than 10% between runs minutes apart, even in the best operation of a
// run (README.md, "Threads and noise"); allocation repeats exactly.
var endToEnd = []metricDef{
	{"events_per_s", "ev/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.02},
}

// summarize is one run's metric m: value as the run reports it, beside
// the median and quartiles of the samples it comes from.
func summarize(m metricDef, value float64, xs []float64) metricValue {
	q1, q3 := quartiles(xs)
	return metricValue{Value: value, Unit: m.Unit, Median: median(xs), Q1: q1, Q3: q3, N: len(xs), Samples: xs}
}

// perLayer are the traced-run metrics. A workload that does not exercise
// a layer reports 0 for it (and "n/a" in the printed table).
var perLayer = func() []metricDef {
	ms := []metricDef{
		// Traced boundaries, timed around public calls.
		{"workload.build_ms", "ms", "lower", 0},
		{"workload.gen_ns_per_event", "ns", "lower", 0},
		{"replay.self_ns_per_event", "ns", "lower", 0},
		{"experiments.build_ms", "ms", "lower", 0},
		{"mmu.translate_ns_per_event", "ns", "lower", 0},
		{"mmu.translate_ns_per_miss", "ns", "lower", 0},
		// Ladder rungs: the workload's own stream through one layer.
		{"replay.engine_ns_per_event", "ns", "lower", 0},
		{"tlb.l1_ns_per_probe", "ns", "lower", 0},
		{"tlb.l2_ns_per_probe", "ns", "lower", 0},
		{"pagetable.walk_ns", "ns", "lower", 0},
		{"ptecache.ns_per_access", "ns", "lower", 0},
		{"escape.ns_per_probe", "ns", "lower", 0},
		{"physmem.alloc_contig_us", "us", "lower", 0},
	}
	// Exact work per 1k simulated accesses.
	for _, c := range []string{"l1_miss", "l2_miss", "walks", "walk_refs", "ntlb_probes", "nested_walks", "zerod", "seg_checks"} {
		ms = append(ms, metricDef{"mmu." + c + "_pk", "count/kev", "lower", 0})
	}
	ms = append(ms,
		metricDef{"escape.probes_pk", "count/kev", "lower", 0},
		metricDef{"escape.taken_pk", "count/kev", "lower", 0},
		metricDef{"tlb.l2_evictions_pk", "count/kev", "lower", 0},
		metricDef{"guestos.faults_pk", "count/kev", "lower", 0},
		metricDef{"bench.trace_overhead_pct", "%", "lower", 0},
		metricDef{"bench.observe_overhead_pct", "%", "lower", 0},
	)
	return ms
}()

func metricByName(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// median returns the middle of xs (the mean of the two middle values for
// an even count); NaN when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method), so
// spreads printed here match the ones the acceptance check computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	ld := len(s)
	q := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// percentile returns the p-th percentile (0..1) by nearest rank.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
