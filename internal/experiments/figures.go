// Figure drivers: one function per figure in the paper's evaluation.

package experiments

import (
	"fmt"

	"vdirect/internal/sched"
	"vdirect/internal/stats"
	"vdirect/internal/workload"
)

// Row is one bar of a figure: a workload under one configuration.
type Row struct {
	Workload string
	Config   string
	// Overhead is the address-translation overhead (§VIII metric).
	Overhead float64
	Result   Result
}

// Figure bundles an experiment's rows with a rendered table.
type Figure struct {
	ID    string
	Title string
	Rows  []Row
}

// Table renders the figure as fixed-width text, one row per bar.
func (f Figure) Table() *stats.Table {
	t := stats.NewTable(fmt.Sprintf("%s — %s", f.ID, f.Title),
		"workload", "config", "overhead", "walks", "walk-refs", "cyc/walk")
	for _, r := range f.Rows {
		cycPerWalk := 0.0
		if r.Result.Stats.Walks > 0 {
			cycPerWalk = float64(r.Result.WalkCycles) / float64(r.Result.Stats.Walks)
		}
		t.AddRow(r.Workload, r.Config, stats.Percent(r.Overhead),
			fmt.Sprint(r.Result.Stats.Walks),
			fmt.Sprint(r.Result.Stats.WalkMemRefs),
			fmt.Sprintf("%.1f", cycPerWalk))
	}
	return t
}

// Grid renders the figure as a workload × config matrix of overheads,
// the shape of the paper's bar charts.
func (f Figure) Grid() *stats.Table {
	var configs []string
	seenC := map[string]bool{}
	var wls []string
	seenW := map[string]bool{}
	for _, r := range f.Rows {
		if !seenC[r.Config] {
			seenC[r.Config] = true
			configs = append(configs, r.Config)
		}
		if !seenW[r.Workload] {
			seenW[r.Workload] = true
			wls = append(wls, r.Workload)
		}
	}
	// One map lookup per cell instead of a scan over all rows; the
	// first row for a (workload, config) pair wins, as the scan did.
	overheads := make(map[[2]string]float64, len(f.Rows))
	for _, r := range f.Rows {
		key := [2]string{r.Workload, r.Config}
		if _, ok := overheads[key]; !ok {
			overheads[key] = r.Overhead
		}
	}
	cols := append([]string{"workload"}, configs...)
	t := stats.NewTable(fmt.Sprintf("%s — %s (overhead %%)", f.ID, f.Title), cols...)
	for _, w := range wls {
		row := []string{w}
		for _, c := range configs {
			cell := "-"
			if o, ok := overheads[[2]string{w, c}]; ok {
				cell = fmt.Sprintf("%.1f", o*100)
			}
			row = append(row, cell)
		}
		t.AddRow(row...)
	}
	return t
}

// RunGridOpts simulates every workload × config cell, fanning cells
// across the scheduler's worker pool. Each cell builds a fully private
// stack over its own cursor of the workload's one shared trace, and
// derives its seeds from (workload, scale, seed) alone, so rows come
// back identical — same order, same counters — at any parallelism.
func RunGridOpts(cfg sched.Config, workloads, configs []string, scale Scale, seed uint64) ([]Row, error) {
	type cell struct{ wl, label string }
	cells := make([]cell, 0, len(workloads)*len(configs))
	traces := sharedTraces{}
	for _, wl := range workloads {
		for _, label := range configs {
			cells = append(cells, cell{wl, label})
		}
		traces.add(wl, scale.WLConfig(workload.ClassOf(wl), seed), len(configs))
	}
	if cfg.SpanName == nil {
		cfg.SpanName = func(i int) string { return cells[i].wl + " " + cells[i].label }
	}
	return sched.Run(cfg, len(cells), func(i int) (Row, error) {
		wl, label := cells[i].wl, cells[i].label
		spec, err := ParseConfig(label)
		if err != nil {
			return Row{}, err
		}
		spec.Workload = wl
		spec.WL = scale.WLConfig(workload.ClassOf(wl), seed)
		res, err := traces.run(spec)
		if err != nil {
			return Row{}, fmt.Errorf("experiments: %s/%s: %w", wl, label, err)
		}
		return Row{Workload: wl, Config: label, Overhead: res.Overhead, Result: res}, nil
	})
}

// Figure1Opts regenerates the motivation preview: graph500, memcached
// and GUPS under native 4K, three virtualized paging configurations,
// and the proposed Dual Direct and VMM Direct modes.
func Figure1Opts(cfg sched.Config, scale Scale) (Figure, error) {
	rows, err := RunGridOpts(cfg, []string{"graph500", "memcached", "gups"}, Figure1Configs(), scale, 1)
	return Figure{ID: "Figure 1", Title: "virtual memory overheads preview", Rows: rows}, err
}

// Figure11Opts regenerates the big-memory evaluation: four workloads
// under four native and nine virtualized configurations.
func Figure11Opts(cfg sched.Config, scale Scale) (Figure, error) {
	rows, err := RunGridOpts(cfg, workload.BigMemoryNames(), Figure11Configs(), scale, 1)
	return Figure{ID: "Figure 11", Title: "big-memory workload overheads", Rows: rows}, err
}

// Figure12Opts regenerates the compute-workload evaluation with THP
// configurations.
func Figure12Opts(cfg sched.Config, scale Scale) (Figure, error) {
	rows, err := RunGridOpts(cfg, workload.ComputeNames(), Figure12Configs(), scale, 1)
	return Figure{ID: "Figure 12", Title: "compute workload overheads", Rows: rows}, err
}

// Fig13Point is one point of the escape-filter study: mean normalized
// execution time and its 95% confidence interval over the trials.
type Fig13Point struct {
	Workload   string
	BadPages   int
	Normalized stats.Summary
}

// Figure13Opts regenerates the escape-filter study: each big-memory
// workload runs in Dual Direct mode with 1-16 faulty pages placed at
// `trials` different random locations (the paper uses 30), and reports
// execution time normalized to Dual Direct with no bad pages.
// Every trial is an independent cell — the clean baseline and all
// trials of all workloads run concurrently, each over its own cursor of
// the workload's one shared trace — and per-trial bad-page seeds are
// derived from the trial index exactly as the serial loop derived
// them, so the summary statistics are unchanged.
func Figure13Opts(cfg sched.Config, scale Scale, trials int, badCounts []int) ([]Fig13Point, error) {
	if trials <= 0 {
		trials = 30
	}
	if len(badCounts) == 0 {
		badCounts = []int{1, 2, 4, 8, 16}
	}
	wls := workload.BigMemoryNames()
	wlCfg := scale.WLConfig(workload.BigMemory, 1)
	type cell struct {
		wl    string
		bad   int // 0 is the clean baseline
		trial int
	}
	cells := make([]cell, 0, len(wls)*(1+len(badCounts)*trials))
	traces := sharedTraces{}
	for _, wl := range wls {
		traces.add(wl, wlCfg, 1+len(badCounts)*trials)
		cells = append(cells, cell{wl: wl})
		for _, n := range badCounts {
			for trial := 0; trial < trials; trial++ {
				cells = append(cells, cell{wl: wl, bad: n, trial: trial})
			}
		}
	}
	if cfg.SpanName == nil {
		cfg.SpanName = func(i int) string {
			c := cells[i]
			if c.bad == 0 {
				return c.wl + " DD clean"
			}
			return fmt.Sprintf("%s DD bad=%d trial=%d", c.wl, c.bad, c.trial)
		}
	}
	runs, err := sched.Run(cfg, len(cells), func(i int) (Result, error) {
		c := cells[i]
		spec, err := ParseConfig("DD")
		if err != nil {
			return Result{}, err
		}
		spec.Workload = c.wl
		spec.WL = wlCfg
		if c.bad > 0 {
			spec.BadPages = c.bad
			spec.BadPageSeed = uint64(c.trial + 1)
		}
		res, err := traces.run(spec)
		if err != nil {
			if c.bad == 0 {
				return Result{}, fmt.Errorf("experiments: clean DD for %s: %w", c.wl, err)
			}
			return Result{}, fmt.Errorf("experiments: %s with %d bad pages: %w", c.wl, c.bad, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	// Aggregate in cell order: per workload, the clean baseline then
	// badCounts × trials.
	points := make([]Fig13Point, 0, len(wls)*len(badCounts))
	i := 0
	for _, wl := range wls {
		cleanT := runs[i].ExecutionCycles()
		i++
		for _, n := range badCounts {
			samples := make([]float64, 0, trials)
			for trial := 0; trial < trials; trial++ {
				samples = append(samples, runs[i].ExecutionCycles()/cleanT)
				i++
			}
			points = append(points, Fig13Point{
				Workload:   wl,
				BadPages:   n,
				Normalized: stats.Summarize(samples),
			})
		}
	}
	return points, nil
}

// Figure13Table renders the escape-filter study.
func Figure13Table(points []Fig13Point) *stats.Table {
	t := stats.NewTable("Figure 13 — normalized execution time with bad pages (Dual Direct)",
		"workload", "bad pages", "normalized time", "95% CI", "slowdown %")
	for _, p := range points {
		t.AddRow(p.Workload, fmt.Sprint(p.BadPages),
			fmt.Sprintf("%.5f", p.Normalized.Mean),
			fmt.Sprintf("±%.5f", p.Normalized.CI),
			fmt.Sprintf("%.3f", (p.Normalized.Mean-1)*100))
	}
	return t
}
