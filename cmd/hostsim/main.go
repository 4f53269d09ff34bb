// Command hostsim runs one whole-host consolidation cell — N guest
// VMs, each with its own kernel and tenants, contending for a single
// shared host physical memory under the policy engine's churn — and
// prints the per-guest report: mode mixture, translation overhead,
// owner-accounted footprint, policy-op counters, and the host's
// fragmentation state.
//
// With -sweep it instead sweeps density 1..N on a fixed host size and
// prints the fragmentation-knee table `paperbench -only host` emits.
// Output is byte-identical at any -shards.
//
// Usage:
//
//	hostsim                           # 4 guests, gups, auto-sized host
//	hostsim -guests 8 -hostmb 280     # squeeze 8 guests into 280MB
//	hostsim -sweep -guests 8          # density sweep with the knee
//	hostsim -workload memcached -ops 100000 -shards 4
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"vdirect/internal/experiments"
	"vdirect/internal/host"
	"vdirect/internal/telemetry"
	"vdirect/internal/workload"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return // -h: the usage is printed
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostsim:", err)
		os.Exit(1)
	}
}

// run parses args and simulates the cell or sweep, printing the tables
// to stdout; flag errors and usage go to stderr.
func run(args []string, stdout, stderr io.Writer) (retErr error) {
	fs := flag.NewFlagSet("hostsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		guests  = fs.Int("guests", 4, "consolidation density: VMs to admit (sweep: deepest step)")
		tenants = fs.Int("tenants", 2, "processes per guest")
		wl      = fs.String("workload", "gups", "Table V workload every tenant runs")
		memMB   = fs.Int("mem", 8, "per-tenant primary region size in MB")
		ops     = fs.Int("ops", 50000, "per-tenant trace length")
		hostMB  = fs.Uint64("hostmb", 0, "host physical memory in MB (0 = auto-size for -guests)")
		seed    = fs.Uint64("seed", 42, "policy engine seed")
		shards  = fs.Int("shards", 1, "replay shard goroutines; output is identical at any value")
		sweep   = fs.Bool("sweep", false, "sweep density 1..-guests on a fixed host instead of one cell")
	)
	var tf telemetry.Flags
	tf.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if tf.Version {
		fmt.Fprintln(stdout, telemetry.VersionString("hostsim"))
		return nil
	}
	if err := checkSizing(*memMB, *ops); err != nil {
		return err
	}
	// A sweep of no densities has no last row to detail.
	if *guests < 1 {
		return fmt.Errorf("-guests must be at least 1, got %d", *guests)
	}
	// host.Config reads zero or fewer tenants and a negative shard count
	// as its defaults, so either would run a cell the flags never asked for.
	if *tenants < 1 {
		return fmt.Errorf("-tenants must be at least 1, got %d", *tenants)
	}
	if *shards < 0 {
		return fmt.Errorf("-shards must not be negative, got %d", *shards)
	}
	sess, err := tf.Start("hostsim", map[string]string{
		"guests":   fmt.Sprint(*guests),
		"workload": *wl,
		"sweep":    fmt.Sprint(*sweep),
	})
	if err != nil {
		return err
	}
	defer func() {
		if err := sess.Close(retErr); retErr == nil {
			retErr = err
		}
	}()

	if !workload.Exists(*wl) {
		return fmt.Errorf("unknown workload %q", *wl)
	}
	cfg := host.Config{
		Guests:          *guests,
		TenantsPerGuest: *tenants,
		Workload:        *wl,
		WL:              workload.Config{Seed: 1, MemoryMB: *memMB, Ops: *ops},
		HostMemory:      *hostMB << 20,
		GuestHeadroom:   32 << 20,
		BalloonFloor:    8 << 20,
		Seed:            *seed,
		Shards:          *shards,
	}

	if *sweep {
		return runSweep(stdout, cfg)
	}
	s, err := host.NewSim(cfg)
	if err != nil {
		return err
	}
	res, err := s.Run()
	if err != nil {
		return err
	}
	s.Fragmentation(&res)
	fmt.Fprintln(stdout, experiments.HostTable([]host.Result{res}).Render())
	fmt.Fprintln(stdout, experiments.HostGuestTable(res).Render())
	return nil
}

// runSweep reruns the cell at every density 1..cfg.Guests over one
// fixed host size, the shape of the paperbench host section. Densities
// run serially; each reuses cfg with only Guests (and, when auto-
// sized, the knee-placing host size) changed.
func runSweep(stdout io.Writer, cfg host.Config) error {
	maxDensity := cfg.Guests
	if cfg.HostMemory == 0 {
		// Same knee placement as the paperbench study.
		cfg.HostMemory = cfg.KneeHostMemory(maxDensity)
	}
	var rows []host.Result
	for d := 1; d <= maxDensity; d++ {
		c := cfg
		c.Guests = d
		c.Name = "" // re-derive the cell label per density
		if c.Shards > d {
			c.Shards = d
		}
		s, err := host.NewSim(c)
		if err != nil {
			return fmt.Errorf("density %d: %w", d, err)
		}
		res, err := s.Run()
		if err != nil {
			return fmt.Errorf("density %d: %w", d, err)
		}
		s.Fragmentation(&res)
		rows = append(rows, res)
	}
	fmt.Fprintln(stdout, experiments.HostTable(rows).Render())
	fmt.Fprintln(stdout, experiments.HostGuestTable(rows[len(rows)-1]).Render())
	return nil
}

// checkSizing rejects a -mem or -ops that is not positive before any
// work starts: zero would silently select host.Config's default sizing,
// and a negative -ops simulates no accesses at all.
func checkSizing(mem, ops int) error {
	if mem <= 0 {
		return fmt.Errorf("-mem must be positive, got %d", mem)
	}
	if ops <= 0 {
		return fmt.Errorf("-ops must be positive, got %d", ops)
	}
	return nil
}
