// Command bench measures how fast vdirect produces its exact counts, end
// to end and layer by layer, and checks that the counts are right. It
// runs single-threaded (GOMAXPROCS 1): on a 2-vCPU VM two threads nearly
// doubled the per-slot spread and lowered throughput.
// See README.md for the workloads and metrics.
//
//	go -C bench run . -seed 1                      # e2e phase, then trace phase
//	go -C bench run . -workload gups-dd -phase trace
//	go -C bench run . -compare parent.json change.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's settings.
type config struct {
	workloads  []*workloadDef
	seed       uint64
	seconds    time.Duration
	phase      string
	quick      bool
	record     bool
	jsonPath   string
	spansPath  string
	goldenPath string

	golden   *goldens
	warmup   time.Duration
	slotMin  time.Duration
	minSlots int
	tr       *tracer
	out      io.Writer
}

// Sampling: each workload warms up for warmup, then gets at least
// minSlots slots of at least slotMin of work, so its statistics have
// enough samples to sit still. In the first second of a run operations
// were up to twice as slow as later ones.
const (
	warmup   = time.Second
	slotMin  = 300 * time.Millisecond
	minSlots = 21
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		c        = config{out: stdout, warmup: warmup, slotMin: slotMin, minSlots: minSlots}
		name     = fs.String("workload", "", "run only this workload (default: all)")
		seconds  = fs.Float64("seconds", 0, "measure each phase for at least this many seconds")
		traceArg = fs.String("trace", "", "0 runs the e2e phase, 1 the trace phase (same as -phase)")
		compare  = fs.Bool("compare", false, "compare two -json files: -compare parent.json change.json")
	)
	fs.Uint64Var(&c.seed, "seed", 1, "workload seed")
	fs.StringVar(&c.phase, "phase", "all", "e2e, trace, or all (e2e then trace)")
	fs.BoolVar(&c.quick, "quick", false, "Small sizing, no warm-up, one slot, no goldens")
	fs.BoolVar(&c.record, "record", false, "re-record the goldens (needs -seed 1)")
	fs.StringVar(&c.jsonPath, "json", "", "write every sample to this file")
	fs.StringVar(&c.spansPath, "spans", "", "write the traced run's spans as Chrome trace-event JSON")
	fs.StringVar(&c.goldenPath, "golden", "bench/testdata/golden.json", "where -record writes the goldens")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two files")
			return 2
		}
		if err := compareFiles(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}
	if err := c.setup(*name, *seconds, *traceArg); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if c.record {
		if err := record(&c); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}
	runs, err := c.runs()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "vdirect bench: seed %d, phase %s, GOMAXPROCS %d, %s\n", c.seed, c.phase, runtime.GOMAXPROCS(0), runtime.Version())
	if c.phase != "trace" {
		e2e(&c, runs)
		printE2E(stdout, runs)
	}
	if c.phase != "e2e" {
		c.tr = newTracer()
		tracePhase(&c, runs)
		printPerLayer(stdout, runs)
	}
	if err := c.write(runs); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	printResult(stdout, &c, runs)
	return 0
}

// setup validates the flags.
func (c *config) setup(name string, seconds float64, traceArg string) error {
	switch traceArg {
	case "":
	case "0":
		c.phase = "e2e"
	case "1":
		c.phase = "trace"
	default:
		return fmt.Errorf("bench: -trace must be 0 or 1, got %q", traceArg)
	}
	switch c.phase {
	case "e2e", "trace", "all":
	default:
		return fmt.Errorf("bench: -phase must be e2e, trace or all, got %q", c.phase)
	}
	if seconds < 0 || math.IsNaN(seconds) || seconds > 3600 {
		return fmt.Errorf("bench: -seconds out of range: %v", seconds)
	}
	c.seconds = time.Duration(seconds * float64(time.Second))
	if name != "" {
		d, ok := workloadByName(name)
		if !ok {
			return fmt.Errorf("bench: unknown workload %q (have %s)", name, names())
		}
		c.workloads = []*workloadDef{d}
	} else {
		for i := range workloads {
			c.workloads = append(c.workloads, &workloads[i])
		}
	}
	if c.quick {
		c.warmup, c.slotMin, c.minSlots = 0, 0, 1
	}
	return nil
}

// runs prepares each workload's collector with the output its operations
// must reproduce.
func (c *config) runs() ([]*wlRun, error) {
	if !c.quick {
		g, err := readGoldens()
		if err != nil {
			return nil, err
		}
		c.golden = g
	}
	var runs []*wlRun
	for _, d := range c.workloads {
		w := &wlRun{def: d, Name: d.Name, samples: map[string][]float64{}}
		w.want = c.golden.want(d, c.seed, c.quick)
		if !c.quick && c.seed == c.golden.Seed && w.want == "" {
			return nil, fmt.Errorf("bench: no golden for %s (run with -record)", d.Name)
		}
		runs = append(runs, w)
	}
	return runs, nil
}

// write saves every sample (-json) and the spans (-spans).
func (c *config) write(runs []*wlRun) error {
	if c.jsonPath != "" {
		doc := map[string]any{
			"seed": c.seed, "phase": c.phase, "quick": c.quick,
			"gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
			"workloads": runs,
		}
		data, err := json.MarshalIndent(doc, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(c.jsonPath, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("bench: writing samples: %w", err)
		}
	}
	if c.spansPath != "" && c.tr != nil {
		return c.tr.writeChrome(c.spansPath)
	}
	return nil
}

func printE2E(out io.Writer, runs []*wlRun) {
	fmt.Fprintf(out, "\nend-to-end (value: the best operation for host time, the median for alloc_mb; then the samples' median, quartiles and n)\n")
	fmt.Fprintf(out, "%-18s %-14s %-6s %14s %14s %14s %14s %5s %7s\n", "workload", "metric", "unit", "value", "median", "q1", "q3", "n", "spread")
	for _, w := range runs {
		for _, m := range endToEnd {
			v := w.Metrics[m.Name]
			fmt.Fprintf(out, "%-18s %-14s %-6s %14.6g %14.6g %14.6g %14.6g %5d %6.2f%%\n",
				w.Name, m.Name, m.Unit, v.Value, v.Median, v.Q1, v.Q3, v.N, 100*(v.Q3-v.Q1)/v.Median)
		}
		if n := len(w.nsPerEv); n > 0 {
			note := ""
			if n < 100 {
				note = ", fewer than 10 samples above it"
			}
			fmt.Fprintf(out, "%-18s p90 host ns per simulated access %.1f (n=%d cells%s, not gated)\n", w.Name, percentile(w.nsPerEv, 0.9), n, note)
		}
		fmt.Fprintf(out, "%-18s fail_frac %d/%d\n", w.Name, w.Failed, w.Attempted)
	}
}

func printPerLayer(out io.Writer, runs []*wlRun) {
	for _, w := range runs {
		fmt.Fprintf(out, "\nper-layer %s (traced run; n/a: layer not exercised, reported as 0)\n", w.Name)
		for _, m := range perLayer {
			v := "n/a"
			if w.measured[m.Name] {
				v = fmt.Sprintf("%.6g", w.PerLayer[m.Name])
			}
			fmt.Fprintf(out, "  %-32s %-10s %14s\n", m.Name, m.Unit, v)
		}
		fmt.Fprintf(out, "  fail_frac %d/%d\n", w.Failed, w.Attempted)
		for _, e := range w.Errors {
			fmt.Fprintf(out, "  error: %s\n", e)
		}
	}
}

// printResult prints the one-line result last: end-to-end metrics after
// the e2e phase, per-layer metrics after the trace phase. With more than
// one workload each name is prefixed by its workload.
func printResult(out io.Writer, c *config, runs []*wlRun) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: map[string]value{}}
	for _, w := range runs {
		res.Attempted += w.Attempted
		res.Failed += w.Failed
		prefix := ""
		if len(runs) > 1 {
			prefix = w.Name + "/"
		}
		if c.phase != "trace" {
			for _, m := range endToEnd {
				res.Metrics[prefix+m.Name] = value{w.Metrics[m.Name].Value, m.Unit}
			}
		}
		if c.phase != "e2e" {
			for _, m := range perLayer {
				res.Metrics[prefix+m.Name] = value{w.PerLayer[m.Name], m.Unit}
			}
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for k, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			res.Correct = false
			res.Metrics[k] = value{0, v.Unit}
		}
	}
	data, err := json.Marshal(res)
	if err != nil {
		panic(err)
	}
	fmt.Fprintln(out, string(data))
}

// names lists workload names, for messages.
func names() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.Name)
	}
	sort.Strings(ns)
	return strings.Join(ns, ", ")
}
