// Consolidation study (extension): a consolidated host runs many
// independent VMs, and the simulator can exploit that independence. Each
// tenant owns a complete private stack — host memory, VM, guest kernel,
// process, MMU, replay engine — so tenants never share mutable state and
// the study can partition them across shard goroutines via
// sched.RunSharded: shards advance their tenants one scheduling quantum
// at a time and meet at a barrier, with statistics accumulated in
// tenant-indexed cells each written only by the owning shard, making
// the aggregate byte-identical at any shard count: the totals are sums
// of per-tenant values that each depend only on that tenant's seed.
//
// The modeled result is the paper's consolidation argument in §VIII:
// nested paging's overhead compounds as tenants multiply, while Dual
// Direct holds per-tenant overhead near zero.

package experiments

import (
	"fmt"

	"vdirect/internal/perfmodel"
	"vdirect/internal/replay"
	"vdirect/internal/sched"
	"vdirect/internal/stats"
	"vdirect/internal/telemetry/walkprof"
	"vdirect/internal/trace"
	"vdirect/internal/workload"
)

// ConsolidationQuantum is the scheduling quantum, in accesses, between
// shard barriers. It only sets how often shards synchronize and merge;
// simulated results are identical at any value.
const ConsolidationQuantum = 1 << 16

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

// shardStats holds tenant-indexed statistics cells. Each cell is
// written only by the shard goroutine that owns the tenant (see
// sched.RunSharded's determinism contract), so plain increments are
// race-free and the totals never depend on shard scheduling.
type shardStats struct {
	accesses   []uint64 // by tenant
	walkCycles []uint64 // by tenant
}

func newShardStats(tenants int) *shardStats {
	return &shardStats{
		accesses:   make([]uint64, tenants),
		walkCycles: make([]uint64, tenants),
	}
}

// tenant is one VM's private simulation stack plus its replay cursor.
type tenant struct {
	env *env
	eng *replay.Engine
}

// ConsolidationStudy simulates `tenants` independent VMs per workload ×
// config cell, partitioned across `shards` goroutines (shard s owns
// tenants i with i%shards == s). Results are identical for any shards
// ≥ 1; shards only sets host-side parallelism.
func ConsolidationStudy(scale Scale, workloads []string, tenants, shards int) ([]ConsolidationResult, error) {
	if tenants <= 0 {
		tenants = 4
	}
	if shards <= 0 {
		shards = 1
	}
	if shards > tenants {
		shards = tenants
	}
	var out []ConsolidationResult
	for _, wl := range workloads {
		for _, config := range []string{"4K+4K", "DD"} {
			res, err := runConsolidation(wl, config, scale, tenants, shards)
			if err != nil {
				return nil, err
			}
			out = append(out, res)
		}
	}
	return out, nil
}

func runConsolidation(wl, config string, scale Scale, tenants, shards int) (ConsolidationResult, error) {
	spec, err := ParseConfig(config)
	if err != nil {
		return ConsolidationResult{}, err
	}
	spec.Workload = wl
	class := workload.New(wl, workload.Config{MemoryMB: 1, Ops: 1}).Class()

	// Build every tenant stack serially, in tenant order: construction
	// allocates from per-tenant hosts, so this is determinism hygiene
	// (and keeps build errors ordered), not a correctness requirement.
	// Walk sampling, when enabled, gives each tenant its own sampler —
	// tenant-private state driven only by that tenant's access stream, so
	// samples are identical at any shard count; streams commit in tenant
	// order after the run.
	prof := walkprof.Enabled()
	ts := make([]*tenant, tenants)
	samplers := make([]*walkprof.Sampler, tenants)
	for i := range ts {
		s := spec
		s.WL = scale.WLConfig(class, uint64(i+1))
		w := workload.New(wl, s.WL)
		e, err := build(s, w)
		if err != nil {
			return ConsolidationResult{}, fmt.Errorf("experiments: consolidation tenant %d: %w", i, err)
		}
		if got := e.m.Mode(); got != s.Mode {
			return ConsolidationResult{}, fmt.Errorf("experiments: consolidation built mode %v, wanted %v", got, s.Mode)
		}
		if prof != nil {
			samplers[i] = prof.Sampler(wl+"/"+config, i, s.WL.Seed)
			e.m.SetWalkSampler(samplers[i])
		}
		t := &tenant{env: e}
		t.eng = replay.New(w, replay.Hooks{
			AccessBlock: func(evs []trace.Event) (int, error) {
				return translateBlock(e, evs)
			},
		}, replay.Config{})
		ts[i] = t
	}

	// Quantum-stepped execution: each round, every shard advances each
	// of its live tenants by one quantum, entirely within tenant-private
	// state (sched.RunSharded supplies the barrier discipline).
	agg := newShardStats(tenants)
	err = sched.RunSharded(shards, tenants, func(i int) (bool, error) {
		t := ts[i]
		before := t.env.m.Stats().WalkCycles
		n, more, err := t.eng.Step(ConsolidationQuantum)
		if err != nil {
			return true, fmt.Errorf("experiments: consolidation tenant %d: %w", i, err)
		}
		agg.accesses[i] += uint64(n)
		agg.walkCycles[i] += t.env.m.Stats().WalkCycles - before
		return !more, nil
	}, nil)
	if err != nil {
		return ConsolidationResult{}, err
	}

	if prof != nil {
		for _, s := range samplers {
			prof.Commit(s)
		}
	}

	cpi := workload.New(wl, scale.WLConfig(class, 1)).BaseCPI()
	res := ConsolidationResult{Workload: wl, Config: config, Tenants: tenants}
	worst := 0.0
	for i := 0; i < tenants; i++ {
		res.Accesses += agg.accesses[i]
		res.WalkCycles += agg.walkCycles[i]
		o := perfmodel.Overhead(float64(agg.walkCycles[i]), float64(agg.accesses[i])*cpi)
		if o > worst {
			worst = o
		}
	}
	res.Overhead = perfmodel.Overhead(float64(res.WalkCycles), float64(res.Accesses)*cpi)
	res.WorstTenant = worst
	return res, nil
}

// ConsolidationTable renders the study.
func ConsolidationTable(rows []ConsolidationResult) *stats.Table {
	t := stats.NewTable("Consolidation — aggregate translation overhead across tenants",
		"workload", "config", "tenants", "accesses", "overhead", "worst tenant")
	for _, r := range rows {
		t.AddRow(r.Workload, r.Config, fmt.Sprint(r.Tenants), fmt.Sprint(r.Accesses),
			stats.Percent(r.Overhead), stats.Percent(r.WorstTenant))
	}
	return t
}
