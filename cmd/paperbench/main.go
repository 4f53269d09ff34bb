// Command paperbench regenerates the paper's evaluation: every figure
// and table of §VIII and §IX, printed as text tables (and optionally
// written to files).
//
// Simulation cells fan out across cores (-j, default GOMAXPROCS) with
// progress on stderr; output is byte-identical at any -j because every
// cell owns a private simulation stack, per-cell RNG seeds depend only
// on the cell's spec, and results are emitted in a fixed order.
//
// Usage:
//
//	paperbench                       # everything at medium scale, all cores
//	paperbench -scale full           # the EXPERIMENTS.md setting
//	paperbench -j 1                  # serial run (same bytes, slower)
//	paperbench -only figure11,shadow # run and print only these sections
//	paperbench -out results/         # also write one file per section
//	paperbench -cpuprofile cpu.pb    # profile the replay hot path
//	paperbench -trace run.json -manifest run-manifest.json
//	                                 # Chrome trace + run manifest
//	paperbench -histograms           # per-walk telemetry histograms
//	paperbench -sample 64 -samples walks.jsonl
//	                                 # 1-in-64 walk sampling, analyzed
//	                                 # offline with cmd/walkprof
//	paperbench -only walkprof        # walk-level attribution of the paper
//	                                 # sections' cells (auto-enables
//	                                 # sampling)
//	paperbench -only host -shards 4  # whole-host consolidation-density
//	                                 # sweep (fragmentation knee and
//	                                 # escape-filter cost)
//	paperbench -listen :8080         # live /metrics, /snapshot,
//	                                 # /walkprof, /debug/pprof/
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"vdirect"
	"vdirect/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		os.Exit(1)
	}
}

func run() (retErr error) {
	var (
		scaleName  = flag.String("scale", "medium", "simulation scale: small|medium|full")
		only       = flag.String("only", "", "comma-separated sections to run and print ("+strings.Join(vdirect.PaperSections, ",")+", or the extension studies "+strings.Join(vdirect.ExtensionSections, ", ")+"); empty runs the paper sections")
		shards     = flag.Int("shards", 1, "intra-cell shard goroutines for the consolidation and host studies; output is identical at any value")
		density    = flag.Int("density", 8, "host study's maximum consolidation density (guests at the deepest sweep step)")
		outDir     = flag.String("out", "", "directory to write per-section files into")
		trials     = flag.Int("fig13-trials", 30, "trials per escape-filter point")
		jobs       = flag.Int("j", 0, "max concurrently simulated cells (0 = GOMAXPROCS); output is identical at any -j")
		quiet      = flag.Bool("quiet", false, "suppress the cells-done progress line on stderr")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memprofile = flag.String("memprofile", "", "write a post-run heap profile to this file (go tool pprof)")
		histograms = flag.Bool("histograms", false, "print per-walk telemetry histograms (refs and cycles per mode) after the report")
	)
	var tf telemetry.Flags
	tf.Register(flag.CommandLine)
	flag.Parse()

	if tf.Version {
		fmt.Println(telemetry.VersionString("paperbench"))
		return nil
	}
	// The report's live heap is small next to what its cells allocate.
	// Once traces were packed it shrank further, and at the default
	// GOGC of 100 the collector ran about 40% more cycles and the full
	// report slowed by a few percent; 150 wins that back and still
	// keeps peak RSS well below what unpacked traces held
	// (EXPERIMENTS.md, "Packed traces"). A GOGC in the environment wins.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(150)
	}

	scale, err := vdirect.ParseScale(*scaleName)
	if err != nil {
		return err
	}

	sections, err := checkFlags(*only, *trials, *density, *jobs, *shards)
	if err != nil {
		return err
	}

	// The histogram section needs telemetry live even when no -trace or
	// -manifest path was given; the walkprof section likewise needs
	// sampling on even when no -sample/-samples flag asked for it.
	tf.Force = tf.Force || *histograms
	if slices.Contains(sections, "walkprof") && tf.Sample == 0 && tf.SamplesOut == "" {
		tf.Sample = 64
	}
	sess, err := tf.Start("paperbench", map[string]string{
		"scale":        *scaleName,
		"j":            fmt.Sprint(*jobs),
		"fig13-trials": fmt.Sprint(*trials),
		"only":         *only,
	})
	if err != nil {
		return err
	}
	defer func() {
		// The manifest records the run's error, so Close comes after
		// retErr settles; its own failure surfaces unless one is already
		// being reported.
		if err := sess.Close(retErr); retErr == nil {
			retErr = err
		}
	}()

	stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProfiles(); retErr == nil {
			retErr = err
		}
	}()

	opts := vdirect.Options{
		Parallelism: *jobs,
		Fig13Trials: *trials,
		Sections:    sections,
		HostDensity: *density,
		Shards:      *shards,
	}
	if !*quiet {
		opts.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rsimulating: %d/%d cells", done, total)
		}
	}
	start := time.Now()
	report, err := vdirect.ReproduceAllOpts(scale, opts)
	if !*quiet {
		fmt.Fprintln(os.Stderr)
	}
	if err != nil {
		return err
	}
	for _, sec := range report.Sections {
		fmt.Println(sec.Text)
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				return err
			}
			path := filepath.Join(*outDir, sec.Name+".txt")
			if err := os.WriteFile(path, []byte(sec.Text), 0o644); err != nil {
				return err
			}
			if sec.CSV != "" {
				csvPath := filepath.Join(*outDir, sec.Name+".csv")
				if err := os.WriteFile(csvPath, []byte(sec.CSV), 0o644); err != nil {
					return err
				}
			}
		}
	}
	if *histograms {
		fmt.Println(telemetry.Default().Snapshot().
			HistogramTable("telemetry — per-walk distributions").Render())
	}
	fmt.Printf("— paperbench completed in %s at %s scale —\n",
		time.Since(start).Round(time.Second), *scaleName)
	return nil
}

// checkFlags rejects bad flag values before any work starts and returns
// the -only selection (nil selects the paper sections). Unchecked, an
// unknown -only name printed an empty report and exited 0, and a
// -fig13-trials or -density below 1 silently ran the defaults.
func checkFlags(only string, trials, density, jobs, shards int) ([]string, error) {
	if trials < 1 {
		return nil, fmt.Errorf("-fig13-trials must be at least 1, got %d", trials)
	}
	if density < 1 {
		return nil, fmt.Errorf("-density must be at least 1, got %d", density)
	}
	if jobs < 0 {
		return nil, fmt.Errorf("-j must be 0 (all cores) or positive, got %d", jobs)
	}
	if shards < 0 {
		return nil, fmt.Errorf("-shards must not be negative, got %d", shards)
	}
	if only == "" {
		return nil, nil
	}
	var sections []string
	for _, s := range strings.Split(only, ",") {
		sections = append(sections, strings.TrimSpace(s))
	}
	if err := vdirect.CheckSections(sections); err != nil {
		return nil, fmt.Errorf("-only: %w", err)
	}
	return sections, nil
}

// startProfiles begins CPU profiling and arranges the heap profile.
// Callers run the returned stop via defer, so both profiles flush and
// close even when the run fails midway — os.Exit never intervenes.
func startProfiles(cpu, mem string) (stop func() error, err error) {
	var cpuF *os.File
	if cpu != "" {
		cpuF, err = os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuF); err != nil {
			cpuF.Close()
			return nil, err
		}
	}
	return func() error {
		var first error
		if cpuF != nil {
			pprof.StopCPUProfile()
			if err := cpuF.Close(); err != nil {
				first = err
			}
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				if first == nil {
					first = err
				}
				return first
			}
			runtime.GC() // settle allocations so the profile shows live heap
			if err := pprof.WriteHeapProfile(f); err != nil && first == nil {
				first = err
			}
			if err := f.Close(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}, nil
}
