package experiments

import (
	"reflect"
	"testing"

	"vdirect/internal/sched"
)

// TestConsolidationDeterminism runs the study serially and sharded and
// requires identical results: the tenant partition must not leak into
// the aggregate. Under -race this also exercises the shard goroutines
// for data races.
func TestConsolidationDeterminism(t *testing.T) {
	base, err := ConsolidationStudy(sched.Config{}, Small, []string{"gups"}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 3, 8} {
		got, err := ConsolidationStudy(sched.Config{}, Small, []string{"gups"}, 3, shards)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !reflect.DeepEqual(base, got) {
			t.Errorf("shards=%d: results differ\nserial:  %+v\nsharded: %+v", shards, base, got)
		}
	}
}

// TestConsolidationOrdering pins the row layout the report section
// depends on: workload-major, config-minor, constant tenant count.
func TestConsolidationOrdering(t *testing.T) {
	rows, err := ConsolidationStudy(sched.Config{}, Small, []string{"gups", "memcached"}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]string{
		{"gups", "4K+4K"}, {"gups", "DD"},
		{"memcached", "4K+4K"}, {"memcached", "DD"},
	}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		if r.Workload != want[i][0] || r.Config != want[i][1] {
			t.Errorf("row %d = %s/%s, want %s/%s", i, r.Workload, r.Config, want[i][0], want[i][1])
		}
		if r.Tenants != 2 {
			t.Errorf("row %d tenants = %d, want 2", i, r.Tenants)
		}
		if r.Accesses == 0 {
			t.Errorf("row %d simulated no accesses", i)
		}
		if r.WorstTenant < r.Overhead {
			t.Errorf("row %d worst tenant %v below aggregate %v", i, r.WorstTenant, r.Overhead)
		}
	}
	// Nested paging must cost more than Dual Direct for the same
	// workload — the study's reason to exist.
	if rows[0].Overhead <= rows[1].Overhead {
		t.Errorf("gups 4K+4K overhead %v not above DD %v", rows[0].Overhead, rows[1].Overhead)
	}
	// The table renders without panicking and mentions every workload.
	text := ConsolidationTable(rows).Render()
	if text == "" {
		t.Fatal("empty table")
	}
}
