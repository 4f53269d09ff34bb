// Command vmemsim runs workloads under translation configurations and
// prints the translation statistics — the simulator's equivalent of
// perf-instrumented runs from the paper's methodology (§VII).
//
// Both -workload and -config accept comma-separated lists; the full
// workload × config grid is simulated, fanned across cores (-j, default
// GOMAXPROCS). Output order and every counter are identical at any -j:
// each cell owns a private simulation stack and derives its RNG seeds
// from the cell spec alone.
//
// Usage:
//
//	vmemsim -workload graph500 -config 4K+VD -scale medium
//	vmemsim -workload graph500,gups -config 4K,4K+4K,DD -j 4
//	vmemsim -workload gups -trace run.json -manifest run.manifest.json
//	vmemsim -list
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"vdirect"
	"vdirect/internal/telemetry"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return // -h: the usage is printed
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "vmemsim:", err)
		os.Exit(1)
	}
}

// run parses args and simulates the requested grid, printing the cells
// to stdout; flag errors and usage go to stderr.
func run(args []string, stdout, stderr io.Writer) (retErr error) {
	fs := flag.NewFlagSet("vmemsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadName = fs.String("workload", "gups", "workload(s) to run, comma-separated (see -list)")
		config       = fs.String("config", "4K+4K", `configuration label(s), comma-separated: 4K|2M|1G|THP|DS|A+B|A+VD|A+GD|A+FL|DD`)
		scaleName    = fs.String("scale", "medium", "simulation scale: small|medium|full")
		jobs         = fs.Int("j", 0, "max concurrently simulated cells (0 = GOMAXPROCS); output is identical at any -j")
		list         = fs.Bool("list", false, "list workloads and exit")
	)
	var tf telemetry.Flags
	tf.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if tf.Version {
		fmt.Fprintln(stdout, telemetry.VersionString("vmemsim"))
		return nil
	}
	if *list {
		for _, n := range vdirect.Workloads() {
			fmt.Fprintln(stdout, n)
		}
		return nil
	}
	if *jobs < 0 {
		return fmt.Errorf("-j must be 0 (all cores) or positive, got %d", *jobs)
	}
	scale, err := vdirect.ParseScale(*scaleName)
	if err != nil {
		return err
	}
	workloads := splitList(*workloadName)
	configs := splitList(*config)
	if len(workloads) == 0 {
		return fmt.Errorf("-workload list is empty (see -list)")
	}
	if len(configs) == 0 {
		return fmt.Errorf("-config list is empty")
	}

	sess, err := tf.Start("vmemsim", map[string]string{
		"workload": *workloadName,
		"config":   *config,
		"scale":    *scaleName,
		"j":        fmt.Sprint(*jobs),
	})
	if err != nil {
		return err
	}
	defer func() {
		if err := sess.Close(retErr); retErr == nil {
			retErr = err
		}
	}()

	rows, err := vdirect.RunCells(workloads, configs, scale, *jobs)
	if err != nil {
		return err
	}
	for i, row := range rows {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		printCell(stdout, row)
	}
	return nil
}

func splitList(s string) []string {
	var out []string
	for _, tok := range strings.Split(s, ",") {
		if tok = strings.TrimSpace(tok); tok != "" {
			out = append(out, tok)
		}
	}
	return out
}

func printCell(w io.Writer, row vdirect.FigureRow) {
	res := row.Result
	st := res.Stats
	fmt.Fprintf(w, "workload            %s\n", row.Workload)
	fmt.Fprintf(w, "configuration       %s (%v)\n", row.Config, res.Spec.Mode)
	fmt.Fprintf(w, "measured accesses   %d\n", res.Accesses)
	fmt.Fprintf(w, "translation overhead %.2f%%\n", res.Overhead*100)
	fmt.Fprintf(w, "walk cycles         %d\n", res.WalkCycles)
	fmt.Fprintf(w, "ideal cycles        %.0f\n", res.IdealCycles)
	fmt.Fprintln(w)
	fmt.Fprintf(w, "L1 TLB   hits %-12d misses %d\n", st.L1Hits, st.L1Misses)
	fmt.Fprintf(w, "L2 TLB   hits %-12d misses %d\n", st.L2Hits, st.L2Misses)
	fmt.Fprintf(w, "walks    %-12d 0D walks %d\n", st.Walks, st.ZeroDWalks)
	fmt.Fprintf(w, "walk memory references  %d\n", st.WalkMemRefs)
	fmt.Fprintf(w, "segment checks          %d\n", st.SegmentChecks)
	fmt.Fprintf(w, "nested TLB  hits %-8d misses %d  walks %d\n",
		st.NestedTLBHits, st.NestedTLBMisses, st.NestedWalks)
	fmt.Fprintf(w, "escape filter probes %-6d taken %d\n", st.EscapeProbes, st.EscapeTaken)
	fmt.Fprintf(w, "miss classes  both=%d vmm-only=%d guest-only=%d neither=%d\n",
		st.MissBoth, st.MissVMMOnly, st.MissGuestOnly, st.MissNeither)
}
