// Command tracestat characterizes workload traces: footprint, page-
// level locality, read/write mix, and allocation churn. It is the tool
// used to validate that each Table V generator reproduces its
// namesake's memory behaviour.
//
// Usage:
//
//	tracestat                       # all workloads, default sizing
//	tracestat -workload graph500 -mem 512 -ops 1000000
package main

import (
	"flag"
	"fmt"
	"os"

	"vdirect/internal/addr"
	"vdirect/internal/replay"
	"vdirect/internal/stats"
	"vdirect/internal/telemetry"
	"vdirect/internal/trace"
	"vdirect/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tracestat:", err)
		os.Exit(1)
	}
}

func run() (retErr error) {
	var (
		name = flag.String("workload", "", "single workload (default: all)")
		mem  = flag.Int("mem", 256, "working-set MB")
		ops  = flag.Int("ops", 500000, "accesses to generate")
		seed = flag.Uint64("seed", 1, "trace seed")
	)
	var tf telemetry.Flags
	tf.Register(flag.CommandLine)
	flag.Parse()

	if tf.Version {
		fmt.Println(telemetry.VersionString("tracestat"))
		return nil
	}
	if err := checkSizing(*mem, *ops); err != nil {
		return err
	}

	names := workload.Names()
	if *name != "" {
		if !workload.Exists(*name) {
			return fmt.Errorf("unknown workload %q", *name)
		}
		names = []string{*name}
	}

	sess, err := tf.Start("tracestat", map[string]string{
		"workload": *name,
		"mem":      fmt.Sprint(*mem),
		"ops":      fmt.Sprint(*ops),
		"seed":     fmt.Sprint(*seed),
	})
	if err != nil {
		return err
	}
	defer func() {
		if err := sess.Close(retErr); retErr == nil {
			retErr = err
		}
	}()

	t := stats.NewTable("Workload trace characteristics",
		"workload", "class", "CPI", "footprint", "accesses",
		"uniq 4K pages", "pages/1K acc", "writes", "allocs", "stack frac")
	for _, n := range names {
		if err := characterize(t, n, *seed, *mem, *ops); err != nil {
			return fmt.Errorf("%s: %w", n, err)
		}
	}
	fmt.Print(t.Render())
	return nil
}

// characterize streams one workload's trace through counting hooks —
// observation-only, never materialized as a whole — and appends its row.
func characterize(t *stats.Table, n string, seed uint64, mem, ops int) error {
	span := telemetry.StartSpan("cell", n)
	defer span.End()
	w := workload.New(n, workload.Config{Seed: seed, MemoryMB: mem, Ops: ops})
	var (
		writes, allocs, stack uint64
		pages                 = map[uint64]struct{}{}
	)
	eng := replay.New(w, replay.Hooks{
		Access: func(ev trace.Event) error {
			pages[uint64(ev.VA)>>addr.PageShift4K] = struct{}{}
			if ev.Write {
				writes++
			}
			if uint64(ev.VA) >= workload.StackBase && uint64(ev.VA) < workload.StackBase+workload.StackSize {
				stack++
			}
			return nil
		},
		Alloc: func(ev trace.Event) error {
			allocs++
			return nil
		},
	}, replay.Config{})
	if err := eng.Run(); err != nil {
		return err
	}
	accesses := eng.Counts().Accesses
	t.AddRow(n, w.Class().String(),
		fmt.Sprintf("%.2f", w.BaseCPI()),
		fmt.Sprintf("%dMB", w.PrimaryRegion().Size>>20),
		fmt.Sprint(accesses),
		fmt.Sprint(len(pages)),
		fmt.Sprintf("%.2f", float64(len(pages))/float64(accesses)*1000),
		stats.Percent(float64(writes)/float64(accesses)),
		fmt.Sprint(allocs),
		stats.Percent(float64(stack)/float64(accesses)))
	return nil
}

// checkSizing rejects a -mem or -ops that is not positive, and a -mem
// whose data would not fit the guest address space, before any work
// starts: a negative -ops panics the generator's trace allocation, a
// negative -mem never finishes generating, and a VA past 2^56 panics
// trace.Pack.
func checkSizing(mem, ops int) error {
	if mem <= 0 {
		return fmt.Errorf("-mem must be positive, got %d", mem)
	}
	if ops <= 0 {
		return fmt.Errorf("-ops must be positive, got %d", ops)
	}
	// The primary region is the one part of a workload's address space
	// that grows with -mem.
	space := addr.VirtualSpan >> 20
	if uint64(mem) > space {
		return fmt.Errorf("-mem %d MB exceeds the %d MB guest address space", mem, space)
	}
	for _, n := range workload.Names() {
		if r := workload.PrimaryRegionOf(n, workload.Config{MemoryMB: mem, Ops: ops}); r.End() > addr.VirtualSpan {
			return fmt.Errorf("-mem %d MB puts %s's data past the %d MB guest address space", mem, n, space)
		}
	}
	return nil
}
