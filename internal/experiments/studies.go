// Section VIII and IX studies: cost of virtualization, the §IX.A
// performance breakdown, Table IV model validation, the shadow-paging
// alternative (§IX.D), content-based page sharing (§IX.E), and the
// qualitative Tables II and III.

package experiments

import (
	"fmt"

	"vdirect/internal/perfmodel"
	"vdirect/internal/sched"
	"vdirect/internal/stats"
	"vdirect/internal/vmm"
	"vdirect/internal/workload"
)

// SectionVIII summarizes the cost-of-virtualization observations from
// figure rows: how much virtualization multiplies translation overhead
// and how much large pages recover.
func SectionVIII(rows []Row) *stats.Table {
	t := stats.NewTable("Section VIII — cost of virtualization",
		"workload", "4K", "4K+4K", "virt/native", "2M", "2M+2M", "1G", "1G+1G")
	// One map over the rows instead of a scan per cell; the first row
	// for a (workload, config) pair wins, as the scan did.
	overheads := make(map[[2]string]float64, len(rows))
	for _, r := range rows {
		key := [2]string{r.Workload, r.Config}
		if _, ok := overheads[key]; !ok {
			overheads[key] = r.Overhead
		}
	}
	get := func(wl, cfg string) (float64, bool) {
		v, ok := overheads[[2]string{wl, cfg}]
		return v, ok
	}
	var ratios []float64
	seen := map[string]bool{}
	for _, r := range rows {
		if seen[r.Workload] {
			continue
		}
		seen[r.Workload] = true
		n4, ok1 := get(r.Workload, "4K")
		v4, ok2 := get(r.Workload, "4K+4K")
		if !ok1 || !ok2 {
			continue
		}
		cell := func(cfg string) string {
			if v, ok := get(r.Workload, cfg); ok {
				return fmt.Sprintf("%.1f", v*100)
			}
			return "-"
		}
		ratio := 0.0
		if n4 > 0 {
			ratio = v4 / n4
			ratios = append(ratios, ratio)
		}
		t.AddRow(r.Workload,
			fmt.Sprintf("%.1f", n4*100), fmt.Sprintf("%.1f", v4*100),
			fmt.Sprintf("%.2fx", ratio),
			cell("2M"), cell("2M+2M"), cell("1G"), cell("1G+1G"))
	}
	if len(ratios) > 0 {
		t.AddRow("GEOMEAN", "", "", fmt.Sprintf("%.2fx", stats.GeoMean(ratios)),
			"", "", "", "")
	}
	return t
}

// BreakdownRow is one workload of the §IX.A analysis.
type BreakdownRow struct {
	Workload string
	// Mn, Mv: TLB misses (walk invocations) native vs virtualized;
	// Inflation = Mv/Mn, the shared-L2 capacity-erosion effect.
	Mn, Mv    uint64
	Inflation float64
	// Cn, Cv: page-walk cycles per miss; CvOverCn is the paper's
	// "average cycles per TLB miss grows with virtualization" factor.
	Cn, Cv   float64
	CvOverCn float64
	// VDPerMissVsNative and GDPerMissVsNative: cycles per miss in VMM
	// Direct / Guest Direct relative to native (paper: +13%, +3%).
	VDPerMissVsNative float64
	GDPerMissVsNative float64
	// DDL2MissReduction is the fraction of L2 TLB misses Dual Direct
	// eliminates (paper: ~99.9%).
	DDL2MissReduction float64
}

// modeConfigs are the five configurations the §IX.A breakdown and the
// Table IV validation both measure per workload.
var modeConfigs = []string{"4K", "4K+4K", "4K+VD", "4K+GD", "DD"}

// runModeGrid simulates modeConfigs for every workload through the
// scheduler and returns one config→Result map per workload.
func runModeGrid(cfg sched.Config, scale Scale, workloads []string) ([]map[string]Result, error) {
	rows, err := RunGridOpts(cfg, workloads, modeConfigs, scale, 1)
	if err != nil {
		return nil, err
	}
	out := make([]map[string]Result, len(workloads))
	for i := range workloads {
		results := make(map[string]Result, len(modeConfigs))
		for _, r := range rows[i*len(modeConfigs) : (i+1)*len(modeConfigs)] {
			results[r.Config] = r.Result
		}
		out[i] = results
	}
	return out, nil
}

// BreakdownOpts reproduces the §IX.A analysis for the given workloads.
func BreakdownOpts(cfg sched.Config, scale Scale, workloads []string) ([]BreakdownRow, error) {
	grids, err := runModeGrid(cfg, scale, workloads)
	if err != nil {
		return nil, err
	}
	var out []BreakdownRow
	for i, wl := range workloads {
		results := grids[i]
		nat, virt := results["4K"], results["4K+4K"]
		vd, gd, dd := results["4K+VD"], results["4K+GD"], results["DD"]
		perMiss := func(r Result) float64 {
			handled := r.Stats.Walks + r.Stats.ZeroDWalks
			if handled == 0 {
				return 0
			}
			return float64(r.WalkCycles) / float64(handled)
		}
		row := BreakdownRow{
			Workload: wl,
			Mn:       nat.Stats.Walks,
			Mv:       virt.Stats.Walks,
			Cn:       perMiss(nat),
			Cv:       perMiss(virt),
		}
		if row.Mn > 0 {
			row.Inflation = float64(row.Mv) / float64(row.Mn)
		}
		if row.Cn > 0 {
			row.CvOverCn = row.Cv / row.Cn
			row.VDPerMissVsNative = perMiss(vd) / row.Cn
			row.GDPerMissVsNative = perMiss(gd) / row.Cn
		}
		if virt.Stats.L2Misses > 0 {
			row.DDL2MissReduction = 1 - float64(dd.Stats.L2Misses)/float64(virt.Stats.L2Misses)
		}
		out = append(out, row)
	}
	return out, nil
}

// BreakdownTable renders the §IX.A analysis.
func BreakdownTable(rows []BreakdownRow) *stats.Table {
	t := stats.NewTable("Section IX.A — performance breakdown",
		"workload", "Mn", "Mv", "Mv/Mn", "Cn", "Cv", "Cv/Cn",
		"VD/miss vs native", "GD/miss vs native", "DD L2-miss cut")
	for _, r := range rows {
		t.AddRow(r.Workload,
			fmt.Sprint(r.Mn), fmt.Sprint(r.Mv), fmt.Sprintf("%.2fx", r.Inflation),
			fmt.Sprintf("%.1f", r.Cn), fmt.Sprintf("%.1f", r.Cv),
			fmt.Sprintf("%.2fx", r.CvOverCn),
			fmt.Sprintf("%.2fx", r.VDPerMissVsNative),
			fmt.Sprintf("%.2fx", r.GDPerMissVsNative),
			stats.Percent(r.DDL2MissReduction))
	}
	return t
}

// ModelRow is one workload of the Table IV validation: the paper's
// linear model versus direct simulation of each mode.
type ModelRow struct {
	Workload string
	Inputs   perfmodel.Inputs
	// Predicted and Simulated walk cycles per mode label.
	Predicted map[string]float64
	Simulated map[string]float64
}

// TableIVValidationOpts measures model inputs (Mn, Cn, Cv, F_*) from
// simulation and compares the Table IV predictions against directly
// simulated mode cycles. The residual quantifies what the paper's model
// leaves out — chiefly TLB-miss inflation, which it acknowledges.
func TableIVValidationOpts(cfg sched.Config, scale Scale, workloads []string) ([]ModelRow, error) {
	grids, err := runModeGrid(cfg, scale, workloads)
	if err != nil {
		return nil, err
	}
	var out []ModelRow
	for i, wl := range workloads {
		results := grids[i]
		nat, base := results["4K"], results["4K+4K"]
		vd, gd, dd := results["4K+VD"], results["4K+GD"], results["DD"]
		frac := func(part uint64, r Result) float64 {
			total := r.Stats.MissBoth + r.Stats.MissVMMOnly + r.Stats.MissGuestOnly + r.Stats.MissNeither
			if total == 0 {
				return 0
			}
			return float64(part) / float64(total)
		}
		common := perfmodel.Inputs{
			Mn: float64(nat.Stats.Walks),
			Cn: stats.Ratio(float64(nat.WalkCycles), float64(nat.Stats.Walks)),
			Cv: stats.Ratio(float64(base.WalkCycles), float64(base.Stats.Walks)),
		}
		// Each model takes its coverage fractions from its own mode's
		// miss classification — they form one disjoint partition per
		// configuration, exactly as the BadgerTrap classification of
		// §VII partitions the misses of the run being modeled.
		vdIn, gdIn, ddIn := common, common, common
		vdIn.FVD = frac(vd.Stats.MissVMMOnly, vd)
		gdIn.FGD = frac(gd.Stats.MissGuestOnly, gd)
		ddIn.FDD = frac(dd.Stats.MissBoth, dd)
		ddIn.FVD = frac(dd.Stats.MissVMMOnly, dd)
		ddIn.FGD = frac(dd.Stats.MissGuestOnly, dd)
		out = append(out, ModelRow{
			Workload: wl,
			Inputs:   ddIn,
			Predicted: map[string]float64{
				"4K+VD": vdIn.VMMDirect(),
				"4K+GD": gdIn.GuestDirect(),
				"DD":    ddIn.DualDirect(),
			},
			Simulated: map[string]float64{
				"4K+VD": float64(vd.WalkCycles),
				"4K+GD": float64(gd.WalkCycles),
				"DD":    float64(dd.WalkCycles),
			},
		})
	}
	return out, nil
}

// ModelTable renders the Table IV validation.
func ModelTable(rows []ModelRow) *stats.Table {
	t := stats.NewTable("Table IV — linear model vs direct simulation (walk cycles)",
		"workload", "mode", "model", "simulated", "rel err")
	for _, r := range rows {
		for _, mode := range []string{"4K+VD", "4K+GD", "DD"} {
			t.AddRow(r.Workload, mode,
				fmt.Sprintf("%.3g", r.Predicted[mode]),
				fmt.Sprintf("%.3g", r.Simulated[mode]),
				stats.Percent(perfmodel.RelativeError(r.Predicted[mode], r.Simulated[mode])))
		}
	}
	return t
}

// SharingResult is one VM pair of the §IX.E study.
type SharingResult struct {
	PairA, PairB string
	Report       vmm.SharingReport
}

// SharingStudyOpts reproduces §IX.E: co-schedule pairs of big-memory
// VMs and measure how much memory content-based sharing reclaims. Guest
// pages are assigned content hashes: a small fraction are OS code/zero
// pages identical across VMs; workload data is unique per VM, as the
// paper observed ("the bulk of memory is for data structures unique to
// the workload"). Each VM pair is one independent cell (its own host).
func SharingStudyOpts(cfg sched.Config, vmMB uint64, osFrac, zeroFrac float64) ([]SharingResult, error) {
	wls := workload.BigMemoryNames()
	type pair struct{ i, j int }
	var pairs []pair
	for i := 0; i < len(wls); i++ {
		for j := i; j < len(wls); j++ {
			pairs = append(pairs, pair{i, j})
		}
	}
	if cfg.SpanName == nil {
		cfg.SpanName = func(k int) string {
			return "share " + wls[pairs[k].i] + "+" + wls[pairs[k].j]
		}
	}
	return sched.Run(cfg, len(pairs), func(k int) (SharingResult, error) {
		i, j := pairs[k].i, pairs[k].j
		host := vmm.NewHost(vmMB * 3 << 20)
		vmA, err := host.CreateVM(vmm.VMConfig{Name: wls[i], MemorySize: vmMB << 20, NestedPageSize: 0})
		if err != nil {
			return SharingResult{}, err
		}
		vmB, err := host.CreateVM(vmm.VMConfig{Name: wls[j], MemorySize: vmMB << 20, NestedPageSize: 0})
		if err != nil {
			return SharingResult{}, err
		}
		pages := (vmMB << 20) >> 12
		osPages := uint64(float64(pages) * osFrac)
		zeroPages := uint64(float64(pages) * zeroFrac)
		fill := func(vm *vmm.VM, salt uint64) {
			for p := uint64(0); p < pages; p++ {
				gpa := p << 12
				switch {
				case p < osPages:
					vm.SetPageContent(gpa, 0xC0DE0000+p) // same distro in both VMs
				case p < osPages+zeroPages:
					vm.SetPageContent(gpa, 1) // zero page
				default:
					vm.SetPageContent(gpa, (salt<<32)|p) // unique data
				}
			}
		}
		fill(vmA, uint64(i)+100)
		fill(vmB, uint64(j)+200)
		rep, err := host.ScanAndShare([]*vmm.VM{vmA, vmB})
		if err != nil {
			return SharingResult{}, err
		}
		return SharingResult{PairA: wls[i], PairB: wls[j], Report: rep}, nil
	})
}

// SharingTable renders the §IX.E study.
func SharingTable(rows []SharingResult) *stats.Table {
	t := stats.NewTable("Section IX.E — content-based page sharing savings",
		"VM pair", "scanned pages", "saved frames", "saved %")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%s + %s", r.PairA, r.PairB),
			fmt.Sprint(r.Report.ScannedPages),
			fmt.Sprint(r.Report.SavedFrames),
			stats.Percent(r.Report.SavedFraction()))
	}
	return t
}

// TableII renders the qualitative mode-tradeoff table.
func TableII() *stats.Table {
	t := stats.NewTable("Table II — tradeoffs among virtualized modes",
		"property", "Base Virtualized", "Dual Direct", "VMM Direct", "Guest Direct")
	caps := vmm.AllCapabilities()
	row := func(name string, get func(vmm.Capabilities) string) {
		cells := []string{name}
		for _, c := range caps {
			cells = append(cells, get(c))
		}
		t.AddRow(cells...)
	}
	yn := func(b bool) string {
		if b {
			return "required"
		}
		return "none"
	}
	row("page walk dimensions", func(c vmm.Capabilities) string { return c.WalkDims })
	row("memory accesses/walk", func(c vmm.Capabilities) string { return fmt.Sprint(c.MemAccesses) })
	row("base-bound checks", func(c vmm.Capabilities) string { return fmt.Sprint(c.BaseBoundChecks) })
	row("guest OS modifications", func(c vmm.Capabilities) string { return yn(c.GuestOSMods) })
	row("VMM modifications", func(c vmm.Capabilities) string { return yn(c.VMMMods) })
	row("application category", func(c vmm.Capabilities) string { return c.AppCategory })
	row("page sharing", func(c vmm.Capabilities) string { return c.PageSharing.String() })
	row("ballooning", func(c vmm.Capabilities) string { return c.Ballooning.String() })
	row("guest swapping", func(c vmm.Capabilities) string { return c.GuestSwapping.String() })
	row("VMM swapping", func(c vmm.Capabilities) string { return c.VMMSwapping.String() })
	return t
}

// TableIII renders the fragmented-system mode policy.
func TableIII() *stats.Table {
	t := stats.NewTable("Table III — modes utilized in fragmented systems",
		"applications", "VM state", "initial mode", "final mode", "techniques")
	cases := []struct {
		class workload.Class
		frag  vmm.FragState
		state string
	}{
		{workload.BigMemory, vmm.FragState{HostFragmented: true}, "host fragmented"},
		{workload.BigMemory, vmm.FragState{GuestFragmented: true}, "guest fragmented"},
		{workload.BigMemory, vmm.FragState{HostFragmented: true, GuestFragmented: true}, "host+guest fragmented"},
		{workload.Compute, vmm.FragState{HostFragmented: true}, "host fragmented"},
		{workload.Compute, vmm.FragState{GuestFragmented: true}, "guest fragmented"},
		{workload.Compute, vmm.FragState{HostFragmented: true, GuestFragmented: true}, "host+guest fragmented"},
	}
	for _, c := range cases {
		class := vmm.BigMemory
		if c.class == workload.Compute {
			class = vmm.Compute
		}
		p := vmm.PlanModes(class, c.frag)
		tech := "-"
		if len(p.Techniques) > 0 {
			tech = fmt.Sprint(p.Techniques)
		}
		t.AddRow(c.class.String(), c.state, p.Initial.String(), p.Final.String(), tech)
	}
	return t
}

// EnergyRow is the §IX.B dynamic-energy proxy for one configuration:
// event counts weighted by per-structure access energy, normalized to
// the base virtualized configuration.
type EnergyRow struct {
	Workload string
	Config   string
	Relative float64
}

// Energy derives the §IX.B discussion from figure rows: a translation
// dynamic-energy proxy of weighted structure accesses. Weights are
// relative access energies (L2 TLB probe 4, page-walk memory reference
// 8, segment comparator 0.5); the L1 probe is identical in every
// configuration and omitted.
func Energy(rows []Row) []EnergyRow {
	proxy := func(r Result) float64 {
		s := r.Stats
		l2Probes := s.L2Hits + s.L2Misses + s.NestedTLBHits + s.NestedTLBMisses
		return 4*float64(l2Probes) + 8*float64(s.WalkMemRefs) + 0.5*float64(s.SegmentChecks)
	}
	base := map[string]float64{}
	for _, r := range rows {
		if r.Config == "4K+4K" {
			base[r.Workload] = proxy(r.Result)
		}
	}
	var out []EnergyRow
	for _, r := range rows {
		if !r.Result.Spec.Mode.Virtualized() {
			continue
		}
		b := base[r.Workload]
		if b == 0 {
			continue
		}
		out = append(out, EnergyRow{Workload: r.Workload, Config: r.Config, Relative: proxy(r.Result) / b})
	}
	return out
}

// EnergyTable renders the §IX.B proxy.
func EnergyTable(rows []EnergyRow) *stats.Table {
	t := stats.NewTable("Section IX.B — translation dynamic-energy proxy (vs 4K+4K)",
		"workload", "config", "relative energy")
	for _, r := range rows {
		t.AddRow(r.Workload, r.Config, fmt.Sprintf("%.3f", r.Relative))
	}
	return t
}
