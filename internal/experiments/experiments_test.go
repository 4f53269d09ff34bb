package experiments

import (
	"fmt"
	"strings"
	"testing"

	"vdirect/internal/addr"
	"vdirect/internal/mmu"
	"vdirect/internal/sched"
	"vdirect/internal/workload"
)

// TestParseScale checks that every scale round-trips through String
// and ParseScale, and that an unknown name is refused with the error
// the command-line tools print.
func TestParseScale(t *testing.T) {
	cases := []struct {
		name string
		want Scale
		ok   bool
	}{
		{Small.String(), Small, true},
		{Medium.String(), Medium, true},
		{Full.String(), Full, true},
		{"", 0, false},
		{"large", 0, false},
		{"Small", 0, false},
	}
	for _, c := range cases {
		got, err := ParseScale(c.name)
		if !c.ok {
			if want := fmt.Sprintf("unknown scale %q", c.name); err == nil || err.Error() != want {
				t.Errorf("ParseScale(%q) = %v, %v; want error %q", c.name, got, err, want)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("ParseScale(%q) = %v, %v; want %v", c.name, got, err, c.want)
		}
	}
}

func TestParseConfig(t *testing.T) {
	cases := []struct {
		label  string
		mode   mmu.Mode
		guest  addr.PageSize
		nested addr.PageSize
	}{
		{"4K", mmu.ModeNative, addr.Page4K, addr.Page4K},
		{"2M", mmu.ModeNative, addr.Page2M, addr.Page4K},
		{"1G", mmu.ModeNative, addr.Page1G, addr.Page4K},
		{"THP", mmu.ModeNative, addr.Page2M, addr.Page4K},
		{"DS", mmu.ModeDirectSegment, addr.Page4K, addr.Page4K},
		{"4K+4K", mmu.ModeBaseVirtualized, addr.Page4K, addr.Page4K},
		{"4K+2M", mmu.ModeBaseVirtualized, addr.Page4K, addr.Page2M},
		{"2M+1G", mmu.ModeBaseVirtualized, addr.Page2M, addr.Page1G},
		{"THP+2M", mmu.ModeBaseVirtualized, addr.Page2M, addr.Page2M},
		{"DD", mmu.ModeDualDirect, addr.Page4K, addr.Page4K},
		{"4K+VD", mmu.ModeVMMDirect, addr.Page4K, addr.Page4K},
		{"THP+VD", mmu.ModeVMMDirect, addr.Page2M, addr.Page4K},
		{"4K+GD", mmu.ModeGuestDirect, addr.Page4K, addr.Page4K},
	}
	for _, c := range cases {
		s, err := ParseConfig(c.label)
		if err != nil {
			t.Errorf("%s: %v", c.label, err)
			continue
		}
		if s.Mode != c.mode || s.GuestPage != c.guest || s.NestedPage != c.nested {
			t.Errorf("%s: got mode=%v guest=%v nested=%v", c.label, s.Mode, s.GuestPage, s.NestedPage)
		}
		if s.Label != c.label {
			t.Errorf("%s: label = %q", c.label, s.Label)
		}
	}
	for _, bad := range []string{"", "7K", "4K+9G", "4K+2M+1G", "XX"} {
		if _, err := ParseConfig(bad); err == nil {
			t.Errorf("ParseConfig(%q) accepted", bad)
		}
	}
}

func TestConfigListsParse(t *testing.T) {
	for _, lists := range [][]string{Figure1Configs(), Figure11Configs(), Figure12Configs()} {
		for _, label := range lists {
			if _, err := ParseConfig(label); err != nil {
				t.Errorf("figure config %q does not parse: %v", label, err)
			}
		}
	}
}

func TestScaleConfigs(t *testing.T) {
	for _, s := range []Scale{Small, Medium, Full} {
		for _, class := range []workload.Class{workload.BigMemory, workload.Compute} {
			cfg := s.WLConfig(class, 7)
			if cfg.Seed != 7 || cfg.MemoryMB == 0 || cfg.Ops == 0 {
				t.Errorf("%v/%v config = %+v", s, class, cfg)
			}
		}
	}
	if Small.WLConfig(workload.BigMemory, 1).MemoryMB >= Full.WLConfig(workload.BigMemory, 1).MemoryMB {
		t.Error("scales not ordered")
	}
	if Small.String() != "small" || Medium.String() != "medium" || Full.String() != "full" {
		t.Error("scale strings")
	}
}

// runSmall is a helper running one cell at Small scale.
func runSmall(t *testing.T, wl, label string) Result {
	t.Helper()
	spec, err := ParseConfig(label)
	if err != nil {
		t.Fatal(err)
	}
	spec.Workload = wl
	spec.WL = Small.WLConfig(workload.ClassOf(wl), 1)
	res, err := Run(spec)
	if err != nil {
		t.Fatalf("%s/%s: %v", wl, label, err)
	}
	return res
}

func TestRunAllModesAllWorkloads(t *testing.T) {
	// Every workload must run under every headline mode without error.
	for _, wl := range workload.Names() {
		for _, label := range []string{"4K", "DS", "4K+4K", "DD", "4K+VD", "4K+GD"} {
			res := runSmall(t, wl, label)
			if res.Accesses == 0 {
				t.Errorf("%s/%s: zero measured accesses", wl, label)
			}
		}
	}
}

func TestModeOrderingHolds(t *testing.T) {
	// The paper's headline ordering on a TLB-hostile workload:
	// base virtualized ≫ native ≈ VMM Direct ≈ Guest Direct ≫ Dual Direct.
	native := runSmall(t, "gups", "4K").Overhead
	virt := runSmall(t, "gups", "4K+4K").Overhead
	vd := runSmall(t, "gups", "4K+VD").Overhead
	gd := runSmall(t, "gups", "4K+GD").Overhead
	dd := runSmall(t, "gups", "DD").Overhead
	ds := runSmall(t, "gups", "DS").Overhead

	if virt < native*1.5 {
		t.Errorf("virtualization multiplier too small: native %.3f, virt %.3f", native, virt)
	}
	if vd > native*1.4 || gd > native*1.4 {
		t.Errorf("direct modes not near native: native %.3f, VD %.3f, GD %.3f", native, vd, gd)
	}
	if dd > native*0.2 {
		t.Errorf("Dual Direct not near zero: %.3f vs native %.3f", dd, native)
	}
	if ds > native*0.2 {
		t.Errorf("Direct Segment not near zero: %.3f vs native %.3f", ds, native)
	}
}

func TestLargePagesReduceOverhead(t *testing.T) {
	o4k := runSmall(t, "gups", "4K+4K").Overhead
	r2m := runSmall(t, "gups", "2M+2M").Overhead
	if r2m >= o4k {
		t.Errorf("2M+2M (%.3f) not better than 4K+4K (%.3f)", r2m, o4k)
	}
}

func TestBadPagesRaiseOverheadSlightly(t *testing.T) {
	spec, _ := ParseConfig("DD")
	spec.Workload = "gups"
	spec.WL = Small.WLConfig(workload.BigMemory, 1)
	clean, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.BadPages = 16
	spec.BadPageSeed = 3
	bad, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if bad.Stats.EscapeTaken == 0 {
		t.Error("no escapes with 16 bad pages")
	}
	ratio := bad.ExecutionCycles() / clean.ExecutionCycles()
	if ratio < 1.0-1e-6 {
		t.Errorf("bad pages sped things up: %.4f", ratio)
	}
	// Small scale concentrates accesses, so allow a loose 10% bound; the
	// paper's <0.1% claim is checked at Full scale in EXPERIMENTS.md.
	if ratio > 1.10 {
		t.Errorf("16 bad pages cost %.1f%%, filter not working", (ratio-1)*100)
	}
}

func TestBadPagesRequireVMMSegment(t *testing.T) {
	spec, _ := ParseConfig("4K+4K")
	spec.Workload = "gups"
	spec.WL = Small.WLConfig(workload.BigMemory, 1)
	spec.BadPages = 4
	if _, err := Run(spec); err == nil {
		t.Fatal("bad-page study without a VMM segment succeeded")
	}
}

func TestFigure1Small(t *testing.T) {
	fig, err := Figure1Opts(sched.Config{}, Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != 3*len(Figure1Configs()) {
		t.Fatalf("rows = %d", len(fig.Rows))
	}
	out := fig.Table().Render()
	if !strings.Contains(out, "graph500") || !strings.Contains(out, "DD") {
		t.Error("table missing content")
	}
	grid := fig.Grid().Render()
	if !strings.Contains(grid, "4K+4K") {
		t.Error("grid missing config column")
	}
}

func TestFigure13Small(t *testing.T) {
	points, err := Figure13Opts(sched.Config{}, Small, 3, []int{4, 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(workload.BigMemoryNames())*2 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.Normalized.N != 3 {
			t.Errorf("%s/%d: n = %d", p.Workload, p.BadPages, p.Normalized.N)
		}
		if p.Normalized.Mean < 0.99 || p.Normalized.Mean > 1.25 {
			t.Errorf("%s/%d: normalized %.4f out of band", p.Workload, p.BadPages, p.Normalized.Mean)
		}
	}
	out := Figure13Table(points).Render()
	if !strings.Contains(out, "bad pages") {
		t.Error("figure 13 table missing header")
	}
}

func TestBreakdownSmall(t *testing.T) {
	rows, err := BreakdownOpts(sched.Config{}, Small, []string{"tlbstress", "gups"})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]BreakdownRow{}
	for _, r := range rows {
		byName[r.Workload] = r
	}
	// The microbenchmark demonstrates TLB-miss inflation from shared
	// nested entries (§IX.A: 1.29-1.62× for real workloads).
	ts := byName["tlbstress"]
	if ts.Inflation < 1.15 {
		t.Errorf("tlbstress miss inflation = %.2fx, expected clear capacity erosion", ts.Inflation)
	}
	// 2D walks cost more per miss.
	if ts.CvOverCn < 1.3 || byName["gups"].CvOverCn < 1.3 {
		t.Errorf("Cv/Cn too low: %v", rows)
	}
	// Dual Direct eliminates nearly all L2 TLB misses.
	if byName["gups"].DDL2MissReduction < 0.99 {
		t.Errorf("DD L2 miss reduction = %.4f, want ~99.9%%", byName["gups"].DDL2MissReduction)
	}
	if !strings.Contains(BreakdownTable(rows).Render(), "Mv/Mn") {
		t.Error("breakdown table header")
	}
}

func TestTableIVValidationSmall(t *testing.T) {
	rows, err := TableIVValidationOpts(sched.Config{}, Small, []string{"gups"})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Inputs.Mn == 0 || r.Inputs.Cn == 0 || r.Inputs.Cv <= r.Inputs.Cn {
		t.Errorf("inputs implausible: %+v", r.Inputs)
	}
	// GUPS Dual Direct coverage should be near-total; the DD run's own
	// classification partitions misses, so FVD/FGD are residual there.
	if r.Inputs.FDD < 0.9 {
		t.Errorf("fractions low: %+v", r.Inputs)
	}
	if r.Inputs.FDD+r.Inputs.FVD+r.Inputs.FGD > 1.0+1e-9 {
		t.Errorf("fractions not a partition: %+v", r.Inputs)
	}
	// The model and simulation should agree on ordering: DD ≪ GD ≤ VD.
	if !(r.Predicted["DD"] < r.Predicted["4K+GD"] && r.Predicted["4K+GD"] <= r.Predicted["4K+VD"]) {
		t.Errorf("model ordering wrong: %+v", r.Predicted)
	}
	if !strings.Contains(ModelTable(rows).Render(), "rel err") {
		t.Error("model table header")
	}
}

func TestSectionVIIITable(t *testing.T) {
	rows, err := RunGridOpts(sched.Config{}, []string{"gups"}, []string{"4K", "4K+4K", "2M", "2M+2M"}, Small, 1)
	if err != nil {
		t.Fatal(err)
	}
	out := SectionVIII(rows).Render()
	if !strings.Contains(out, "GEOMEAN") || !strings.Contains(out, "gups") {
		t.Errorf("section VIII table:\n%s", out)
	}
}

func TestShadowStudySmall(t *testing.T) {
	rows, err := ShadowStudyOpts(sched.Config{}, Small, []string{"memcached", "streamcluster"})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]ShadowResult{}
	for _, r := range rows {
		byName[r.Workload] = r
	}
	mc, sc := byName["memcached"], byName["streamcluster"]
	// The churny workload must pay visibly more for shadow paging than
	// the static one (§IX.D's two categories).
	if mc.Exits == 0 {
		t.Fatal("memcached took no exits under shadow paging")
	}
	if mc.ShadowSlowdown <= sc.ShadowSlowdown {
		t.Errorf("shadow slowdowns: memcached %.4f <= streamcluster %.4f",
			mc.ShadowSlowdown, sc.ShadowSlowdown)
	}
	// VMM Direct must not suffer from allocation churn.
	if mc.VMMDirectSlowdown > mc.ShadowSlowdown && mc.ShadowSlowdown > 0.02 {
		t.Errorf("VMM Direct (%.4f) worse than shadow (%.4f) for churny workload",
			mc.VMMDirectSlowdown, mc.ShadowSlowdown)
	}
	if !strings.Contains(ShadowTable(rows).Render(), "shadow") {
		t.Error("shadow table header")
	}
}

func TestSharingStudy(t *testing.T) {
	rows, err := SharingStudyOpts(sched.Config{}, 64, 0.03, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 { // C(4,2)+4 pairs of big-memory workloads
		t.Fatalf("pairs = %d", len(rows))
	}
	for _, r := range rows {
		frac := r.Report.SavedFraction()
		// The paper's claim: sharing saves <3% for big-memory pairs
		// (our content model gives OS pages 3% + zero 1% across two
		// VMs, so savings land under ~2.5%).
		if frac <= 0 || frac > 0.03 {
			t.Errorf("%s+%s: saved %.4f outside (0, 3%%]", r.PairA, r.PairB, frac)
		}
	}
	if !strings.Contains(SharingTable(rows).Render(), "saved %") {
		t.Error("sharing table header")
	}
}

func TestQualitativeTables(t *testing.T) {
	t2 := TableII().Render()
	for _, want := range []string{"Dual Direct", "0D", "24", "unrestricted"} {
		if !strings.Contains(t2, want) {
			t.Errorf("Table II missing %q", want)
		}
	}
	t3 := TableIII().Render()
	for _, want := range []string{"big-memory", "GuestDirect", "DualDirect", "compaction"} {
		if !strings.Contains(t3, want) {
			t.Errorf("Table III missing %q", want)
		}
	}
}

func TestEnergyProxy(t *testing.T) {
	rows, err := RunGridOpts(sched.Config{}, []string{"gups"}, []string{"4K+4K", "DD", "4K+VD"}, Small, 1)
	if err != nil {
		t.Fatal(err)
	}
	energy := Energy(rows)
	rel := map[string]float64{}
	for _, e := range energy {
		rel[e.Config] = e.Relative
	}
	if rel["4K+4K"] != 1.0 {
		t.Errorf("baseline not 1.0: %v", rel)
	}
	// §IX.B expectation: the new modes reduce translation dynamic
	// energy relative to the base virtualized design.
	if rel["DD"] >= 1.0 || rel["4K+VD"] >= 1.0 {
		t.Errorf("direct modes not cheaper: %v", rel)
	}
	if !strings.Contains(EnergyTable(energy).Render(), "relative energy") {
		t.Error("energy table header")
	}
}
