package vdirect

import (
	"fmt"
	"strings"

	"vdirect/internal/experiments"
	"vdirect/internal/host"
	"vdirect/internal/sched"
	"vdirect/internal/telemetry"
	"vdirect/internal/telemetry/walkprof"
	"vdirect/internal/workload"
)

// Scale selects simulation sizing for the evaluation harness.
type Scale = experiments.Scale

// Scales: ScaleSmall for quick checks, ScaleMedium for benchmarks,
// ScaleFull for the numbers recorded in EXPERIMENTS.md.
const (
	ScaleSmall  = experiments.Small
	ScaleMedium = experiments.Medium
	ScaleFull   = experiments.Full
)

// CellResult is one simulated workload × configuration cell.
type CellResult = experiments.Result

// FigureData bundles an experiment's rows with table renderers.
type FigureData = experiments.Figure

// Workloads returns the Table V workload names (plus the §IX.A
// tlbstress microbenchmark).
func Workloads() []string { return workload.Names() }

// WorkloadExists reports whether name is a known workload.
func WorkloadExists(name string) bool { return workload.Exists(name) }

// RunCell simulates one workload under one configuration label (e.g.
// "4K+2M", "DD", "4K+VD" — see ParseConfig in internal/experiments).
func RunCell(workloadName, config string, scale Scale) (CellResult, error) {
	spec, err := experiments.ParseConfig(config)
	if err != nil {
		return CellResult{}, err
	}
	if !workload.Exists(workloadName) {
		return CellResult{}, fmt.Errorf("vdirect: unknown workload %q", workloadName)
	}
	spec.Workload = workloadName
	spec.WL = scale.WLConfig(workload.ClassOf(workloadName), 1)
	return experiments.Run(spec)
}

// FigureRow is one workload × config cell of a grid run.
type FigureRow = experiments.Row

// RunCells simulates every workload × config cell, fanning independent
// cells across up to parallelism cores (0 means GOMAXPROCS). Rows come
// back in workload-major order with identical contents at any
// parallelism.
func RunCells(workloads, configs []string, scale Scale, parallelism int) ([]FigureRow, error) {
	for _, w := range workloads {
		if !workload.Exists(w) {
			return nil, fmt.Errorf("vdirect: unknown workload %q", w)
		}
	}
	return experiments.RunGridOpts(sched.Config{Parallelism: parallelism}, workloads, configs, scale, 1)
}

// Figure1 regenerates the paper's motivation figure.
func Figure1(scale Scale) (FigureData, error) { return experiments.Figure1(scale) }

// Figure11 regenerates the big-memory evaluation figure.
func Figure11(scale Scale) (FigureData, error) { return experiments.Figure11(scale) }

// Figure12 regenerates the compute-workload evaluation figure.
func Figure12(scale Scale) (FigureData, error) { return experiments.Figure12(scale) }

// Figure13 regenerates the escape-filter study (trials per point; the
// paper uses 30).
func Figure13(scale Scale, trials int) (string, error) {
	points, err := experiments.Figure13(scale, trials, nil)
	if err != nil {
		return "", err
	}
	return experiments.Figure13Table(points).Render(), nil
}

// TableII renders the qualitative mode-tradeoff table.
func TableII() string { return experiments.TableII().Render() }

// TableIII renders the fragmented-system mode policy table.
func TableIII() string { return experiments.TableIII().Render() }

// Report is the full evaluation: every figure and study, rendered.
type Report struct {
	Sections []ReportSection
}

// ReportSection is one named block of the evaluation report.
type ReportSection struct {
	Name string
	Text string
	// CSV holds the section's data in machine-readable form, when the
	// section is tabular.
	CSV string
}

// String renders the whole report.
func (r Report) String() string {
	var b strings.Builder
	for _, s := range r.Sections {
		b.WriteString(s.Text)
		b.WriteByte('\n')
	}
	return b.String()
}

// Options configures a full reproduction run.
type Options struct {
	// Parallelism bounds concurrently simulated cells across all
	// sections; 0 means GOMAXPROCS, 1 forces strictly serial
	// execution. Output is byte-identical at any setting: every cell
	// owns a private simulation stack with seeds derived from its spec,
	// and results are assembled in a fixed order.
	Parallelism int
	// Fig13Trials is the escape-filter study's trials per point (the
	// paper uses 30; 0 means 30).
	Fig13Trials int
	// Progress, when non-nil, is called — serialized — as simulation
	// cells complete; total grows as sections register their cells.
	Progress func(done, total int)
	// Consolidation adds the multi-tenant consolidation study to the
	// report. Off by default: it is an extension section, and leaving it
	// out keeps the default report stable.
	Consolidation bool
	// Schemes adds the translation-schemes section: the registry's
	// closed-form cost table and the measured flattened-nested-walk
	// comparison. Off by default for the same reason as Consolidation.
	Schemes bool
	// Shards is the consolidation study's intra-cell parallelism: its
	// tenants are partitioned across this many goroutines (0 or 1 =
	// serial). Results are byte-identical at any setting.
	Shards int
	// Walkprof appends the walk-level attribution section, rendered from
	// the samples the active walkprof profile collected across every
	// section's cells. It requires sampling to be enabled (the -sample /
	// -samples flags, or walkprof.Enable); with sampling off the section
	// says so instead of rendering empty tables.
	Walkprof bool
	// Host adds the whole-host consolidation-density study: N guest VMs
	// over one shared host memory, swept over density on a fixed host
	// size, reporting the fragmentation knee and escape-filter cost.
	// Off by default like the other extension sections. Shards also
	// applies: each density cell's guests replay across that many
	// goroutines.
	Host bool
	// HostDensity is the host study's maximum consolidation density
	// (0 means 8 guests).
	HostDensity int
}

// PaperSections names the sections every report holds, in report order.
var PaperSections = []string{
	"figure1", "figure11", "figure12", "sectionVIII", "breakdown", "tableIV",
	"figure13", "shadow", "sharing", "energy", "tableII", "tableIII",
}

// ExtensionSections names the sections an Options field adds, in the
// order they follow PaperSections: Consolidation, Host, Schemes and
// Walkprof.
var ExtensionSections = []string{"consolidation", "host", "schemes", "walkprof"}

// ReproduceAll runs the complete evaluation at the given scale —
// everything EXPERIMENTS.md records — using every core. At ScaleFull
// this takes several minutes; fig13Trials controls the escape-filter
// study's cost (the paper uses 30 trials per point).
func ReproduceAll(scale Scale, fig13Trials int) (Report, error) {
	return ReproduceAllOpts(scale, Options{Fig13Trials: fig13Trials})
}

// ReproduceAllOpts runs the complete evaluation with explicit scheduler
// options. Independent sections run concurrently and each fans its
// cells into one shared worker pool, so at most opts.Parallelism cells
// simulate at any instant machine-wide.
func ReproduceAllOpts(scale Scale, opts Options) (Report, error) {
	trials := opts.Fig13Trials
	if trials <= 0 {
		trials = 30
	}
	cfg := sched.Config{Limiter: sched.NewLimiter(opts.Parallelism)}
	if opts.Progress != nil {
		cfg.Progress = telemetry.NewProgress(opts.Progress)
	}
	// section wraps a report section's task in a telemetry span so the
	// trace shows one lane per concurrently running section (inert when
	// no telemetry run is active), and hands the task a scheduler
	// configuration that names the section on every cell's timing.
	section := func(name string, f func(cfg sched.Config) error) func() error {
		return func() error {
			span := telemetry.StartSpan("section", name)
			defer span.End()
			cfg := cfg
			cfg.Section = name
			return f(cfg)
		}
	}

	var (
		fig1, fig11, fig12 experiments.Figure
		breakdown          []experiments.BreakdownRow
		models             []experiments.ModelRow
		points             []experiments.Fig13Point
		shadow             []experiments.ShadowResult
		sharing            []experiments.SharingResult
		consolidation      []experiments.ConsolidationResult
		flatRows           []experiments.FlatRow
		hostRows           []host.Result
	)
	tasks := []func() error{}
	if opts.Host {
		density := opts.HostDensity
		if density <= 0 {
			density = 8
		}
		tasks = append(tasks, section("host", func(cfg sched.Config) (err error) {
			hostRows, err = experiments.HostStudy(cfg, scale, "gups", density, opts.Shards)
			return
		}))
	}
	if opts.Schemes {
		tasks = append(tasks, section("schemes", func(cfg sched.Config) (err error) {
			flatRows, err = experiments.SchemesStudy(cfg, scale, workload.BigMemoryNames())
			return
		}))
	}
	if opts.Consolidation {
		tenants := map[Scale]int{ScaleSmall: 2, ScaleMedium: 4, ScaleFull: 8}[scale]
		tasks = append(tasks, section("consolidation", func(sched.Config) (err error) {
			consolidation, err = experiments.ConsolidationStudy(scale,
				[]string{"gups", "memcached"}, tenants, opts.Shards)
			return
		}))
	}
	err := sched.Tasks(append(tasks,
		section("figure1", func(cfg sched.Config) (err error) { fig1, err = experiments.Figure1Opts(cfg, scale); return }),
		section("figure11", func(cfg sched.Config) (err error) { fig11, err = experiments.Figure11Opts(cfg, scale); return }),
		section("figure12", func(cfg sched.Config) (err error) { fig12, err = experiments.Figure12Opts(cfg, scale); return }),
		section("breakdown", func(cfg sched.Config) (err error) {
			breakdown, err = experiments.BreakdownOpts(cfg, scale,
				append([]string{"tlbstress"}, workload.BigMemoryNames()...))
			return
		}),
		section("tableIV", func(cfg sched.Config) (err error) {
			models, err = experiments.TableIVValidationOpts(cfg, scale, workload.BigMemoryNames())
			return
		}),
		section("figure13", func(cfg sched.Config) (err error) {
			points, err = experiments.Figure13Opts(cfg, scale, trials, nil)
			return
		}),
		section("shadow", func(cfg sched.Config) (err error) {
			shadow, err = experiments.ShadowStudyOpts(cfg, scale,
				append(append([]string{}, workload.BigMemoryNames()...), workload.ComputeNames()...))
			return
		}),
		section("sharing", func(cfg sched.Config) (err error) {
			sharing, err = experiments.SharingStudyOpts(cfg, 128, 0.03, 0.01)
			return
		}),
	)...)
	if err != nil {
		return Report{}, err
	}

	// Assembly order is fixed regardless of section completion order.
	var rep Report
	type tabler interface {
		Render() string
		CSV() string
	}
	add := func(name string, t tabler) {
		rep.Sections = append(rep.Sections, ReportSection{Name: name, Text: t.Render(), CSV: t.CSV()})
	}
	add("figure1", fig1.Grid())
	add("figure11", fig11.Grid())
	add("figure12", fig12.Grid())
	add("sectionVIII", experiments.SectionVIII(append(fig11.Rows, fig12.Rows...)))
	add("breakdown", experiments.BreakdownTable(breakdown))
	add("tableIV", experiments.ModelTable(models))
	add("figure13", experiments.Figure13Table(points))
	add("shadow", experiments.ShadowTable(shadow))
	add("sharing", experiments.SharingTable(sharing))
	add("energy", experiments.EnergyTable(experiments.Energy(append(fig11.Rows, fig12.Rows...))))
	add("tableII", experiments.TableII())
	add("tableIII", experiments.TableIII())
	if opts.Consolidation {
		add("consolidation", experiments.ConsolidationTable(consolidation))
	}
	if opts.Host {
		hostT := experiments.HostTable(hostRows)
		text := hostT.Render()
		if len(hostRows) > 0 {
			text += "\n" + experiments.HostGuestTable(hostRows[len(hostRows)-1]).Render()
		}
		rep.Sections = append(rep.Sections, ReportSection{
			Name: "host", Text: text, CSV: hostT.CSV()})
	}
	if opts.Schemes {
		flatT := experiments.FlattenedTable(flatRows)
		rep.Sections = append(rep.Sections, ReportSection{
			Name: "schemes",
			Text: experiments.SchemeCostTable().Render() + "\n" + flatT.Render(),
			CSV:  flatT.CSV(),
		})
	}
	if opts.Walkprof {
		rep.Sections = append(rep.Sections, walkprofSection())
	}
	return rep, nil
}

// walkprofSection renders the walk-level attribution report from the
// samples every completed cell committed to the active profile. Ordering
// inside the dump is canonical, so the section is byte-identical at any
// parallelism or shard count.
func walkprofSection() ReportSection {
	p := walkprof.Enabled()
	if p == nil {
		return ReportSection{
			Name: "walkprof",
			Text: "walkprof: sampling not enabled (use -sample N or -samples FILE)\n",
		}
	}
	d := p.Snapshot()
	schemeT, _ := walkprof.AttributionTables(d)
	return ReportSection{
		Name: "walkprof",
		Text: walkprof.Report(d, 20),
		CSV:  schemeT.CSV(),
	}
}
