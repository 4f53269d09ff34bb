package experiments

import (
	"fmt"
	"os"
	"testing"

	"vdirect/internal/sched"
)

// TestConsolidationPinned locks the consolidation study's output — the
// rendered table plus each row's exact walk-cycle sum — to a checked-in
// file. No report golden covers this study, so this is what holds its
// per-tenant access hook and cycle accounting to their recorded
// behaviour.
func TestConsolidationPinned(t *testing.T) {
	rows, err := ConsolidationStudy(sched.Config{}, Small, []string{"gups", "memcached"}, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := ConsolidationTable(rows).CSV()
	for _, r := range rows {
		got += fmt.Sprintf("%s,%s,walk_cycles=%d\n", r.Workload, r.Config, r.WalkCycles)
	}
	const path = "testdata/consolidation_small.golden"
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("consolidation output differs from %s\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
