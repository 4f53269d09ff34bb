// Command walkprof analyzes a walk-sample file — the simulated
// BadgerTrap output any binary writes with -samples (see -sample for
// the period). It reconstructs where translation cost went from the
// samples alone: per-scheme and per-cell/tenant attribution with
// period-scaled estimates, exact miss-cost percentiles, top-N hot
// pages, and the address-space heatmap; -flame additionally writes the
// profile as collapsed stacks for standard flamegraph tooling
// (flamegraph.pl, inferno, speedscope).
//
// Usage:
//
//	paperbench -scale medium -samples walks.jsonl   # collect
//	walkprof walks.jsonl                            # analyze
//	walkprof -top 40 walks.jsonl                    # more hot pages
//	walkprof -flame walks.folded walks.jsonl        # + flamegraph input
//	walkprof -json walks.jsonl                      # summary as JSON
//
// The sample file is versioned; walkprof rejects files written by a
// different schema rather than misreading them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"vdirect/internal/telemetry"
	"vdirect/internal/telemetry/walkprof"
)

func main() {
	// Package walkprof errors already carry the "walkprof:" prefix, so
	// errors print unadorned; locally built ones add it themselves.
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return // -h: the usage is printed
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run parses args and analyzes the sample file, printing the report to
// stdout; flag errors, usage and progress notes go to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("walkprof", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		top     = fs.Int("top", 20, "hot pages to list in the top-N table (at least 1)")
		flame   = fs.String("flame", "", "write the profile as collapsed stacks (cell;scheme;class;region weight) to this path")
		jsonOut = fs.Bool("json", false, "print the aggregate summary as JSON instead of tables")
		version = fs.Bool("version", false, "print build information and exit")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: walkprof [flags] samples.jsonl\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *version {
		fmt.Fprintln(stdout, telemetry.VersionString("walkprof"))
		return nil
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("walkprof: expected exactly one sample file, got %d arguments", fs.NArg())
	}
	// TopPages reads n <= 0 as "every page", which would print a
	// "top 0 hot pages" header over the whole table.
	if *top < 1 {
		return fmt.Errorf("walkprof: -top must be at least 1, got %d", *top)
	}

	d, err := walkprof.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}

	if *flame != "" {
		if err := os.WriteFile(*flame, []byte(walkprof.Collapsed(d)), 0o644); err != nil {
			return fmt.Errorf("walkprof: writing collapsed stacks: %w", err)
		}
		fmt.Fprintf(stderr, "walkprof: wrote collapsed stacks to %s\n", *flame)
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(walkprof.Summarize(d))
	}
	fmt.Fprint(stdout, walkprof.Report(d, *top))
	return nil
}
