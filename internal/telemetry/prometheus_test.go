package telemetry

import (
	"path/filepath"
	"strings"
	"testing"

	"vdirect/internal/addr"
	"vdirect/internal/telemetry/walkprof"
)

func TestPrometheusText(t *testing.T) {
	r := NewRegistry()
	r.Counter("replay.events").Add(42)
	r.Gauge("cells.running").Set(-3)
	h := r.Histogram("walk.refs.Base Virtualized")
	for i := 0; i < 10; i++ {
		h.Observe(24)
	}
	out := r.Snapshot().PrometheusText()
	for _, want := range []string{
		"# TYPE vdirect_replay_events counter",
		"vdirect_replay_events 42",
		"# TYPE vdirect_cells_running gauge",
		"vdirect_cells_running -3",
		"# TYPE vdirect_walk_refs_Base_Virtualized summary",
		`vdirect_walk_refs_Base_Virtualized{quantile="0.5"}`,
		"vdirect_walk_refs_Base_Virtualized_sum 240",
		"vdirect_walk_refs_Base_Virtualized_count 10",
		"vdirect_walk_refs_Base_Virtualized_max 24",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if out != r.Snapshot().PrometheusText() {
		t.Error("PrometheusText not deterministic")
	}
}

func TestPromNameSanitization(t *testing.T) {
	for in, want := range map[string]string{
		"walk.refs.Dual Direct": "vdirect_walk_refs_Dual_Direct",
		"a-b/c":                 "vdirect_a_b_c",
		"x9":                    "vdirect_x9",
	} {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestSessionSamplingLifecycle checks that the sampling flags drive the
// walkprof profile: Start enables it (with -samples implying the
// default period), Close writes the sample file and deactivates it.
func TestSessionSamplingLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "samples.jsonl")
	f := Flags{SamplesOut: path}
	if period, on := f.Sampling(); !on || period != walkprof.DefaultPeriod {
		t.Fatalf("Sampling() = %d,%v", period, on)
	}
	s, err := f.Start("test-tool", nil)
	if err != nil {
		t.Fatal(err)
	}
	p := walkprof.Enabled()
	if p == nil || p.Period() != walkprof.DefaultPeriod {
		t.Fatal("Start did not enable walkprof at the default period")
	}
	// Simulate one committed cell so the file has content.
	smp := p.Sampler("cell", 0, 0)
	for i := 0; i < 200; i++ {
		smp.Offer(false, "Base", uint64(i), addr.Page4K, walkprof.ClassWalkNeither, 24, 100, 0)
	}
	p.Commit(smp)
	if err := s.Close(nil); err != nil {
		t.Fatal(err)
	}
	if walkprof.Enabled() != nil {
		t.Error("Close left walkprof enabled")
	}
	d, err := walkprof.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumSamples() == 0 || d.Period != walkprof.DefaultPeriod {
		t.Errorf("sample file dump = %d samples, period %d", d.NumSamples(), d.Period)
	}

	// An explicit period wins over the implied default.
	f2 := Flags{Sample: 16}
	s2, err := f2.Start("test-tool", nil)
	if err != nil {
		t.Fatal(err)
	}
	if p2 := walkprof.Enabled(); p2 == nil || p2.Period() != 16 {
		t.Fatal("explicit -sample period not honored")
	}
	if err := s2.Close(nil); err != nil {
		t.Fatal(err)
	}
}
