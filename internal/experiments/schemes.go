// The translation-schemes study (extension section): the scheme
// registry's closed-form cost table, plus a measured before/after
// comparison of the base 2D nested walk against flattened nested page
// tables. The measured half runs on walker-only hardware — paging-
// structure caches and the nested TLB disabled — so every walk pays its
// scheme's full dimensionality and the per-walk reference counts land
// exactly on the closed forms (with the caches on, both walkers skip to
// the leaf almost every time and the dimensionality difference hides).

package experiments

import (
	"fmt"

	"vdirect/internal/mmu"
	"vdirect/internal/sched"
	"vdirect/internal/stats"
	"vdirect/internal/workload"
)

// SchemeCostTable renders every registered scheme's closed-form walk
// cost at the canonical 4K-nested operating points: an uncovered 4K
// access, an uncovered 2M-guest access, and (where the scheme's
// segments can cover at all) a fully covered access. The rows come from
// the registry, so a newly registered scheme appears without touching
// this file.
func SchemeCostTable() *stats.Table {
	t := stats.NewTable("Translation schemes — closed-form walk cost (4K nested pages)",
		"scheme", "2D", "refs 4K", "checks 4K", "refs 2M-guest", "refs covered", "checks covered")
	for _, s := range mmu.Schemes() {
		req := s.Requirements()
		ge, ve := req.GuestSegment, req.VMMSegment
		uncovered := s.WalkCost(mmu.CostInput{
			GuestLevels: 4, NestedLevels: 4,
			GuestSegEnabled: ge, VMMSegEnabled: ve,
		})
		huge := s.WalkCost(mmu.CostInput{
			GuestLevels: 3, NestedLevels: 4,
			GuestSegEnabled: ge, VMMSegEnabled: ve,
		})
		covRefs, covChecks := "-", "-"
		if ge || ve {
			covered := s.WalkCost(mmu.CostInput{
				GuestLevels: 4, NestedLevels: 4,
				GuestCovered: ge, VMMCovered: ve,
				GuestSegEnabled: ge, VMMSegEnabled: ve,
			})
			covRefs, covChecks = fmt.Sprint(covered.Refs), fmt.Sprint(covered.Checks)
		}
		virt := "no"
		if s.Virtualized() {
			virt = "yes"
		}
		t.AddRow(string(s.Name()), virt,
			fmt.Sprint(uncovered.Refs), fmt.Sprint(uncovered.Checks),
			fmt.Sprint(huge.Refs), covRefs, covChecks)
	}
	return t
}

// FlatRow is one workload of the flattened-nested-walk comparison:
// the same trace through Base Virtualized and FlatNested stacks on
// walker-only hardware.
type FlatRow struct {
	Workload string
	Base     Result // 4K+4K, base 2D walker
	Flat     Result // 4K+FL, flattened walker
}

// schemeStudyHardware strips the walk-acceleration caches so measured
// per-walk costs equal the closed-form table (TLBs stay, so only real
// misses walk).
func schemeStudyHardware() mmu.Config {
	return mmu.Config{DisablePWC: true, DisableNestedTLB: true}
}

// SchemesStudy measures the flattened-nested-walk comparison for each
// workload through the scheduler's worker pool.
func SchemesStudy(cfg sched.Config, scale Scale, workloads []string) ([]FlatRow, error) {
	labels := []string{"4K+4K", "4K+FL"}
	type cell struct{ wl, label string }
	cells := make([]cell, 0, len(workloads)*len(labels))
	for _, wl := range workloads {
		for _, label := range labels {
			cells = append(cells, cell{wl, label})
		}
	}
	if cfg.SpanName == nil {
		cfg.SpanName = func(i int) string { return cells[i].wl + " " + cells[i].label + " walker-only" }
	}
	runs, err := sched.Run(cfg, len(cells), func(i int) (Result, error) {
		wl, label := cells[i].wl, cells[i].label
		spec, err := ParseConfig(label)
		if err != nil {
			return Result{}, err
		}
		spec.Workload = wl
		spec.WL = scale.WLConfig(workload.ClassOf(wl), 1)
		spec.MMU = schemeStudyHardware()
		res, err := Run(spec)
		if err != nil {
			return Result{}, fmt.Errorf("experiments: schemes study %s/%s: %w", wl, label, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]FlatRow, len(workloads))
	for i, wl := range workloads {
		rows[i] = FlatRow{Workload: wl, Base: runs[2*i], Flat: runs[2*i+1]}
	}
	return rows, nil
}

// FlattenedTable renders the measured before/after comparison.
func FlattenedTable(rows []FlatRow) *stats.Table {
	t := stats.NewTable("Flattened nested walks — measured on walker-only hardware (4K guest, 4K nested)",
		"workload", "refs/walk 2D", "refs/walk flat", "walk cycles 2D", "walk cycles flat",
		"cycle reduction", "overhead 2D", "overhead flat")
	perWalk := func(r Result) float64 {
		if r.Stats.Walks == 0 {
			return 0
		}
		return float64(r.Stats.WalkMemRefs) / float64(r.Stats.Walks)
	}
	for _, r := range rows {
		reduction := 0.0
		if r.Base.WalkCycles > 0 {
			reduction = 1 - float64(r.Flat.WalkCycles)/float64(r.Base.WalkCycles)
		}
		t.AddRow(r.Workload,
			fmt.Sprintf("%.2f", perWalk(r.Base)), fmt.Sprintf("%.2f", perWalk(r.Flat)),
			fmt.Sprint(r.Base.WalkCycles), fmt.Sprint(r.Flat.WalkCycles),
			stats.Percent(reduction),
			stats.Percent(r.Base.Overhead), stats.Percent(r.Flat.Overhead))
	}
	return t
}
