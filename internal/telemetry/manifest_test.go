package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestManifestGoldenRead pins the v3 manifest shape: the checked-in
// golden document must parse, version-check, and surface its fields.
func TestManifestGoldenRead(t *testing.T) {
	m, err := ReadManifest(filepath.Join("testdata", "manifest_v3.json"))
	if err != nil {
		t.Fatal(err)
	}
	if m.SchemaVersion != ManifestSchemaVersion {
		t.Errorf("schema_version = %d, want %d", m.SchemaVersion, ManifestSchemaVersion)
	}
	if m.Tool != "paperbench" || len(m.Args) != 4 {
		t.Errorf("tool/args = %q/%v", m.Tool, m.Args)
	}
	if m.Metrics.Counters["replay.events"] != 1000000 {
		t.Errorf("counters = %v", m.Metrics.Counters)
	}
	h, ok := m.Metrics.Histograms["walk.refs.Base Virtualized"]
	if !ok || h.Count != 4096 || h.P50 == 0 {
		t.Errorf("histogram snapshot = %+v (ok=%v)", h, ok)
	}
	if len(m.Timings) != 2 || m.Timings[0].Cat != "cell" || m.Timings[0].Section != "figure1" {
		t.Errorf("timings = %+v", m.Timings)
	}
	if want := (SectionTime{Name: "figure1", Cells: 1, CellMS: 400.2}); len(m.Sections) != 1 || m.Sections[0] != want {
		t.Errorf("sections = %+v, want [%+v]", m.Sections, want)
	}
}

// TestManifestRejectsUnknownVersions covers the two failure shapes: a
// pre-versioning document (schema_version absent → 0) and a document
// from a future writer.
func TestManifestRejectsUnknownVersions(t *testing.T) {
	v0 := []byte(`{"tool":"paperbench","args":[],"build":{"go_version":"go1.22.0"},` +
		`"host":{"os":"linux","arch":"amd64","cpus":1},"start":"2026-08-08T12:00:00Z",` +
		`"duration_ms":1,"metrics":{}}`)
	if _, err := ParseManifest(v0); err == nil {
		t.Error("pre-versioning manifest accepted")
	} else if !strings.Contains(err.Error(), "schema_version 0") {
		t.Errorf("v0 error does not name the version: %v", err)
	}
	future := []byte(`{"schema_version":99,"tool":"paperbench"}`)
	if _, err := ParseManifest(future); err == nil {
		t.Error("future manifest accepted")
	}
	if _, err := ParseManifest([]byte("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadManifest(filepath.Join("testdata", "does-not-exist.json")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestManifestWriteReadRoundtrip checks a freshly written manifest is
// readable by ReadManifest — writer and reader agree on the version.
func TestManifestWriteReadRoundtrip(t *testing.T) {
	r := StartRun("test-tool", map[string]string{"k": "v"}, false)
	Default().Counter("x").Add(3)
	Default().Histogram("h").Observe(10)
	for _, sec := range []string{"figure13", "figure1", "figure13", ""} {
		StartSpanIn(sec, "cell", "c").End()
	}
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := r.WriteManifest(path, nil); err != nil {
		t.Fatal(err)
	}
	r.Stop()
	m, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Tool != "test-tool" || m.SchemaVersion != ManifestSchemaVersion {
		t.Errorf("roundtrip manifest = tool %q version %d", m.Tool, m.SchemaVersion)
	}
	if m.Metrics.Counters["x"] != 3 {
		t.Errorf("counters = %v", m.Metrics.Counters)
	}
	if h := m.Metrics.Histograms["h"]; h.P50 == 0 {
		t.Errorf("histogram p50 not serialized: %+v", h)
	}
	// Cells sum by section in name order; a cell under no section is
	// timed but not summed.
	if len(m.Timings) != 4 || m.Timings[0].Section != "figure13" {
		t.Errorf("timings = %+v", m.Timings)
	}
	if len(m.Sections) != 2 || m.Sections[0].Name != "figure1" || m.Sections[0].Cells != 1 ||
		m.Sections[1].Name != "figure13" || m.Sections[1].Cells != 2 ||
		m.Sections[1].CellMS != m.Timings[0].DurMS+m.Timings[2].DurMS {
		t.Errorf("sections = %+v from timings %+v", m.Sections, m.Timings)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"schema_version": 3`) {
		t.Error("written manifest lacks schema_version field")
	}
}

// TestPercentileInterpolation checks the interpolated accessors against
// hand-computed values and their documented bounds.
func TestPercentileInterpolation(t *testing.T) {
	var h Histogram
	// 100 samples of 10 (bucket [8,15]) and 100 of 100 (bucket [64,127]).
	for i := 0; i < 100; i++ {
		h.Observe(10)
		h.Observe(100)
	}
	snapReg := NewRegistry()
	snapReg.Histogram("h").Merge(localFrom(&h))
	v := snapReg.Snapshot().Histograms["h"]

	// p50 lands at the top of the first bucket's occupied span; the
	// interpolated value must stay within [8,15].
	if p := v.Percentile(0.50); p < 8 || p > 15 {
		t.Errorf("p50 = %v, want within [8,15]", p)
	}
	// p95 lands in the second bucket, clamped at the exact max 100.
	if p := v.Percentile(0.95); p < 64 || p > 100 {
		t.Errorf("p95 = %v, want within [64,100]", p)
	}
	if p := v.Percentile(1.0); p != 100 {
		t.Errorf("p100 = %v, want exact max 100", p)
	}
	if v.P50 != v.Percentile(0.50) || v.P95 != v.Percentile(0.95) || v.P99 != v.Percentile(0.99) {
		t.Error("snapshot P50/P95/P99 fields disagree with Percentile")
	}
	// Monotonic in q.
	prev := 0.0
	for q := 0.0; q <= 1.0; q += 0.05 {
		p := v.Percentile(q)
		if p+1e-9 < prev {
			t.Fatalf("Percentile not monotonic at q=%v: %v < %v", q, p, prev)
		}
		prev = p
	}
	if (HistValue{}).Percentile(0.5) != 0 {
		t.Error("empty histogram percentile != 0")
	}
	// Single-value histograms interpolate to that value's bucket, capped
	// at the max.
	one := NewRegistry()
	one.Histogram("o").Observe(7)
	ov := one.Snapshot().Histograms["o"]
	if p := ov.Percentile(0.5); p < 4 || p > 7 {
		t.Errorf("single-value p50 = %v, want within [4,7]", p)
	}
	if math.IsNaN(ov.Percentile(0.99)) {
		t.Error("NaN percentile")
	}
}

// localFrom converts a directly-observed histogram into a Local shard
// so tests can Merge it into a fresh registry histogram.
func localFrom(h *Histogram) *Local {
	var l Local
	for i := 0; i < numBuckets; i++ {
		l.counts[i] = h.counts[i].Load()
	}
	l.n = h.n.Load()
	l.sum = h.sum.Load()
	l.m = h.m.Load()
	return &l
}

// FuzzParseManifest: ParseManifest rejects arbitrary bytes with an
// error, never a panic, and any manifest it accepts is a fixed point of
// one encode/parse round trip.
func FuzzParseManifest(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "manifest_v3.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add([]byte(`{"schema_version":3,"tool":"vmemsim","args":[],"config":{},"start":"2026-01-02T03:04:05+01:00"}`))
	f.Add([]byte(`{"schema_version":3,"timings":[{"cat":"cell","name":"a","section":"s","dur_ms":1}],` +
		`"sections":[{"name":"s","cells":1,"cell_ms":1}]}`))
	f.Add([]byte(`{"schema_version":2,"tool":"paperbench"}`))
	f.Add([]byte(`{"schema_version":1}`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ParseManifest(data)
		if err != nil {
			return
		}
		first, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("re-encoding an accepted manifest: %v", err)
		}
		back, err := ParseManifest(first)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		second, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("round trip changed the manifest:\n%s\nvs\n%s", first, second)
		}
	})
}
