// The two consolidation studies (extensions), both driven by the
// internal/host layer: N guests over one shared physical memory,
// replayed in quantum lockstep across shard goroutines, with owner
// accounting, per-guest stats identities and an oracle cross-check.
//
// The consolidation study is the paper's §VIII argument at
// consolidation scale: nested paging's overhead compounds as tenants
// multiply, while Dual Direct holds per-tenant overhead near zero. Each
// workload × mode cell is one host with one tenant per guest, no
// policy churn, and enough memory that admission never contends.
//
// The density study sweeps one fixed host over consolidation density.
//
// In both, every cell is independent — its own physical memory, VMM,
// guests, policy engine — so the cells fan across the scheduler's
// worker pool like any figure grid, while each cell's guests
// additionally shard across goroutines via the host layer's own
// RunSharded phase. Both axes of parallelism are presentation-only:
// rows come back byte-identical at any -j and any -shards.
//
// The density study's question extends §VI.A/§VIII to machine scale: admitting
// guests Dual Direct requires a boot-time contiguous host run, so as
// density rises on a fixed host the allocator eventually cannot carve
// one more — the fragmentation knee — and late guests fall back to
// Base Virtualized paging, ballooning earlier tenants to fit. Past the
// knee the report shows the two costs the paper predicts: nested-walk
// overhead for the fallback guests, and escape-filter traffic for the
// direct guests whose segments host services (ballooning, retirement)
// have punched holes in.

package experiments

import (
	"fmt"

	"vdirect/internal/host"
	"vdirect/internal/mmu"
	"vdirect/internal/sched"
	"vdirect/internal/stats"
	"vdirect/internal/workload"
)

// hostWL sizes one tenant's trace per scale. The host study multiplies
// every cell by density × tenants, so tenants stay smaller than the
// single-cell figures at the same scale.
func hostWL(scale Scale) workload.Config {
	switch scale {
	case Small:
		return workload.Config{Seed: 1, MemoryMB: 8, Ops: 12000}
	case Full:
		return workload.Config{Seed: 1, MemoryMB: 16, Ops: 200000}
	default:
		return workload.Config{Seed: 1, MemoryMB: 8, Ops: 50000}
	}
}

// hostStudyConfig builds the density-d cell configuration. The host
// size is fixed across the sweep — that is the experiment — and chosen
// by host.Config.KneeHostMemory so the knee lands inside it.
func hostStudyConfig(wl string, scale Scale, density, maxDensity, shards int) host.Config {
	cfg := host.Config{
		Guests:          density,
		TenantsPerGuest: 2,
		Workload:        wl,
		WL:              hostWL(scale),
		GuestHeadroom:   32 << 20,
		BalloonFloor:    8 << 20,
		Seed:            uint64(density),
		Shards:          shards,
	}
	cfg.HostMemory = cfg.KneeHostMemory(maxDensity)
	return cfg
}

// HostStudy sweeps consolidation density 1..maxDensity on one fixed
// host size for the given workload. Densities are independent cells
// scheduled through cfg's worker pool; within a cell, guests replay
// across `shards` goroutines. Rows are identical at any parallelism
// or shard count.
func HostStudy(cfg sched.Config, scale Scale, wl string, maxDensity, shards int) ([]host.Result, error) {
	if maxDensity <= 0 {
		maxDensity = 8
	}
	if shards <= 0 {
		shards = 1
	}
	if !workload.Exists(wl) {
		return nil, fmt.Errorf("experiments: unknown workload %q", wl)
	}
	if cfg.SpanName == nil {
		cfg.SpanName = func(i int) string { return fmt.Sprintf("host %s d=%d", wl, i+1) }
	}
	return sched.Run(cfg, maxDensity, func(i int) (host.Result, error) {
		density := i + 1
		sh := shards
		if sh > density {
			sh = density
		}
		s, err := host.NewSim(hostStudyConfig(wl, scale, density, maxDensity, sh))
		if err != nil {
			return host.Result{}, fmt.Errorf("experiments: host density %d: %w", density, err)
		}
		res, err := s.Run()
		if err != nil {
			return host.Result{}, fmt.Errorf("experiments: host density %d: %w", density, err)
		}
		s.Fragmentation(&res)
		return res, nil
	})
}

// ConsolidationResult aggregates one workload × mode cell over all
// tenants.
type ConsolidationResult struct {
	Workload string
	Config   string
	Tenants  int
	// Accesses and WalkCycles summed over tenants, in tenant order.
	Accesses   uint64
	WalkCycles uint64
	// Overhead is the aggregate translation overhead across tenants.
	Overhead float64
	// WorstTenant is the highest single-tenant overhead — the noisy-
	// neighbour view.
	WorstTenant float64
}

// consolidationConfigs are the study's two rows per workload: nested
// paging and Dual Direct.
var consolidationConfigs = []string{"4K+4K", "DD"}

// ConsolidationStudy simulates `tenants` VMs per workload × config
// cell. Cells are scheduled through cfg's worker pool; within a cell,
// tenants replay across `shards` goroutines. Rows are workload-major,
// config-minor, and identical at any parallelism or shard count.
func ConsolidationStudy(cfg sched.Config, scale Scale, workloads []string, tenants, shards int) ([]ConsolidationResult, error) {
	if tenants <= 0 {
		tenants = 4
	}
	for _, wl := range workloads {
		if !workload.Exists(wl) {
			return nil, fmt.Errorf("experiments: unknown workload %q", wl)
		}
	}
	n := len(consolidationConfigs)
	if cfg.SpanName == nil {
		cfg.SpanName = func(i int) string {
			return "consolidation " + workloads[i/n] + "/" + consolidationConfigs[i%n]
		}
	}
	return sched.Run(cfg, len(workloads)*n, func(i int) (ConsolidationResult, error) {
		wl, config := workloads[i/n], consolidationConfigs[i%n]
		spec, err := ParseConfig(config)
		if err != nil {
			return ConsolidationResult{}, err
		}
		s, err := host.NewSim(host.Config{
			Name:            wl + "/" + config,
			Guests:          tenants,
			TenantsPerGuest: 1,
			Workload:        wl,
			WL:              scale.WLConfig(workload.ClassOf(wl), 1),
			AdmitChurn:      -1,
			RoundChurn:      -1,
			Shards:          shards,
			NoDirect:        spec.Mode != mmu.ModeDualDirect,
		})
		if err != nil {
			return ConsolidationResult{}, fmt.Errorf("experiments: consolidation %s/%s: %w", wl, config, err)
		}
		res, err := s.Run()
		if err != nil {
			return ConsolidationResult{}, fmt.Errorf("experiments: consolidation %s/%s: %w", wl, config, err)
		}
		out := ConsolidationResult{Workload: wl, Config: config, Tenants: tenants,
			Overhead: res.Overhead, WorstTenant: res.WorstGuest}
		for _, g := range res.Guests {
			if g.Mode != spec.Mode {
				return ConsolidationResult{}, fmt.Errorf("experiments: consolidation %s/%s: tenant %d admitted %v",
					wl, config, g.Guest, g.Mode)
			}
			out.Accesses += g.Accesses
			out.WalkCycles += g.WalkCycles
		}
		return out, nil
	})
}

// ConsolidationTable renders the consolidation study.
func ConsolidationTable(rows []ConsolidationResult) *stats.Table {
	t := stats.NewTable("Consolidation — aggregate translation overhead across tenants",
		"workload", "config", "tenants", "accesses", "overhead", "worst tenant")
	for _, r := range rows {
		t.AddRow(r.Workload, r.Config, fmt.Sprint(r.Tenants), fmt.Sprint(r.Accesses),
			stats.Percent(r.Overhead), stats.Percent(r.WorstTenant))
	}
	return t
}

// HostTable renders the density sweep: one row per density, with the
// fragmentation-knee coordinates (direct admissions, still-creatable
// direct reservations, free-space shape) and the two per-density
// costs (aggregate overhead, escape-filter traffic).
func HostTable(rows []host.Result) *stats.Table {
	t := stats.NewTable("Host consolidation — fragmentation knee and escape cost vs density",
		"density", "direct", "creatable", "free MB", "largest run MB", "frag idx",
		"overhead", "worst guest", "esc probes", "esc taken", "escaped pages")
	for _, r := range rows {
		escaped := 0
		for _, g := range r.Guests {
			escaped += g.EscapedPages
		}
		t.AddRow(fmt.Sprint(r.Density), fmt.Sprint(r.DirectGuests), fmt.Sprint(r.Creatable),
			fmt.Sprint(r.Frag.FreeFrames>>8), fmt.Sprint(r.Frag.LargestRun>>8),
			fmt.Sprintf("%.3f", r.Frag.FragIndex),
			stats.Percent(r.Overhead), stats.Percent(r.WorstGuest),
			fmt.Sprint(r.EscapeProbes), fmt.Sprint(r.EscapeTaken), fmt.Sprint(escaped))
	}
	return t
}

// HostGuestTable renders the per-guest detail of one density cell —
// normally the sweep's densest row, where the policy tug-of-war and
// mode mixture are strongest.
func HostGuestTable(r host.Result) *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Host consolidation — per-guest detail at density %d", r.Density),
		"guest", "mode", "accesses", "overhead", "owner MB", "balloons",
		"hotplugs", "retires", "shared", "cow", "migrations", "escaped")
	for _, g := range r.Guests {
		t.AddRow(fmt.Sprint(g.Guest), g.Mode.String(),
			fmt.Sprint(g.Accesses), stats.Percent(g.Overhead),
			fmt.Sprint(g.OwnerFrames>>8),
			fmt.Sprint(g.Balloons), fmt.Sprint(g.Hotplugs), fmt.Sprint(g.Retires),
			fmt.Sprint(g.SharedIn), fmt.Sprint(g.CoWBreaks), fmt.Sprint(g.Migrations),
			fmt.Sprint(g.EscapedPages))
	}
	return t
}
