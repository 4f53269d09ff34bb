package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"vdirect/internal/experiments"
	"vdirect/internal/trace"
)

// TestQuickRunReportsEveryMetric runs both phases at Small sizing and
// checks that every metric is printed with its unit, that every
// operation passed its checks, and that the samples and spans are
// written.
func TestQuickRunReportsEveryMetric(t *testing.T) {
	dir := t.TempDir()
	samples, spans := filepath.Join(dir, "samples.json"), filepath.Join(dir, "spans.json")
	var out, errOut bytes.Buffer
	if code := run([]string{"-quick", "-seed", "3", "-json", samples, "-spans", spans}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	text := out.String()
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !strings.Contains(text, fmt.Sprintf(" %-14s %-6s ", m.Name, m.Unit)) &&
			!strings.Contains(text, fmt.Sprintf(" %-32s %-10s ", m.Name, m.Unit)) {
			t.Errorf("metric %s (%s) not printed", m.Name, m.Unit)
		}
	}
	lines := strings.Split(strings.TrimSpace(text), "\n")
	var res struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("result: correct %v, %d/%d failed\n%s", res.Correct, res.Failed, res.Attempted, text)
	}
	for _, w := range workloads {
		for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
			if got, ok := res.Metrics[w.Name+"/"+m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("result lacks %s/%s in %s", w.Name, m.Name, m.Unit)
			}
		}
		if v := res.Metrics[w.Name+"/events_per_s"].Value; !(v > 0) {
			t.Errorf("%s events_per_s = %v", w.Name, v)
		}
	}

	var doc struct{ Workloads []wlRun }
	if data, err := os.ReadFile(samples); err != nil {
		t.Fatal(err)
	} else if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if len(w.Slots) == 0 || len(w.Cells) == 0 || len(w.Metrics["events_per_s"].Samples) == 0 {
			t.Errorf("%s: samples missing from -json", w.Name)
		}
	}
	var chrome struct{ TraceEvents []map[string]any }
	if data, err := os.ReadFile(spans); err != nil {
		t.Fatal(err)
	} else if err := json.Unmarshal(data, &chrome); err != nil || len(chrome.TraceEvents) == 0 {
		t.Errorf("spans: %v, %d events", err, len(chrome.TraceEvents))
	}
}

// TestTracedMatchesUntraced pins the mirror stack: every cell workload's
// traced Result equals RunWorkload's bit for bit, and so does its Result
// under observation.
func TestTracedMatchesUntraced(t *testing.T) {
	for i := range workloads {
		d := &workloads[i]
		o, want, err := cellOp(d, experiments.Small, 2, false)
		if err != nil {
			t.Fatalf("%s untraced: %v", d.Name, err)
		}
		if _, got, err := cellOp(d, experiments.Small, 2, true); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: observed result differs (%v)", d.Name, err)
		}
		tc, err := cellTraced(d, experiments.Small, 2, newTracer())
		if err != nil {
			t.Fatalf("%s traced: %v", d.Name, err)
		}
		if !reflect.DeepEqual(tc.Result, want) || tc.Digest != o.Digest {
			t.Errorf("%s: traced result differs\ntraced   %+v\nuntraced %+v", d.Name, tc.Result.Stats, want.Stats)
		}
		if tc.Full.Accesses < want.Stats.Accesses || tc.Accesses != tc.Events {
			t.Errorf("%s: whole-run counters %d accesses of %d events", d.Name, tc.Full.Accesses, tc.Events)
		}
	}
}

// nextCounter counts per-event Next calls on top of the measuring wrapper.
type nextCounter struct {
	*cellWorkload
	next int
}

func (n *nextCounter) Next() (trace.Event, bool) {
	n.next++
	return n.cellWorkload.Next()
}

// TestWrapperKeepsBlockPath checks that the Reset-stamping wrapper still
// streams in blocks: were NextBlock hidden, the replay engine would fall
// back to per-event Next calls without a word.
func TestWrapperKeepsBlockPath(t *testing.T) {
	d, _ := workloadByName("cactus-hit")
	spec, err := d.cellSpec(experiments.Small, 1)
	if err != nil {
		t.Fatal(err)
	}
	w, err := newCellWorkload(spec.Workload, spec.WL, nil)
	if err != nil {
		t.Fatal(err)
	}
	nc := &nextCounter{cellWorkload: w}
	before := time.Now()
	if _, err := experiments.RunWorkload(spec, nc); err != nil {
		t.Fatal(err)
	}
	if nc.next != 0 {
		t.Errorf("replay called Next %d times: the wrapper hides NextBlock", nc.next)
	}
	if w.reset.Before(before) {
		t.Error("Reset was not stamped")
	}
}

// TestSelfTime checks self time on a synthetic tree with overlapping and
// overhanging children.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "root", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "a", ID: 1, Parent: 0, Start: 10, End: 40},
		{Name: "b", ID: 2, Parent: 0, Start: 30, End: 60}, // overlaps a
		{Name: "c", ID: 3, Parent: 1, Start: 15, End: 20},
		{Name: "d", ID: 4, Parent: 0, Start: 90, End: 120}, // overhangs root
		{Name: "b", ID: 5, Parent: -1, Start: 200, End: 210},
	}
	want := map[int]time.Duration{0: 40, 1: 25, 2: 30, 3: 5, 4: 30, 5: 10}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	if got := totalsByName(spans)["b"]; got != (spanTotal{Dur: 40, Self: 40, Count: 2}) {
		t.Errorf("totals for b: %+v", got)
	}

	tr := newTracer()
	tr.newTrace()
	root := tr.begin("root")
	tr.begin("left open")
	tr.end(root)
	if len(tr.open) != 0 || tr.spans[1].End != tr.spans[0].End {
		t.Errorf("ending a span must close the spans opened inside it: %+v", tr.spans)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{4, 1}, 0.25, 4.75},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the program's
// own workload and metric tables in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var ws []struct{ Name, Why string }
	for _, w := range workloads {
		ws = append(ws, struct{ Name, Why string }{w.Name, w.Why})
	}
	if !reflect.DeepEqual(b.Workloads, ws) {
		t.Errorf("workloads differ:\n%v\n%v", b.Workloads, ws)
	}
	for _, c := range []struct {
		got  []metric
		want []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		var want []metric
		for _, m := range c.want {
			want = append(want, metric(m))
		}
		if !reflect.DeepEqual(c.got, want) {
			t.Errorf("metrics differ:\n%v\n%v", c.got, want)
		}
	}
}

// TestCompareVerdicts exercises the pairwise rule on synthetic runs.
func TestCompareVerdicts(t *testing.T) {
	m := metricDef{Name: "events_per_s", Better: "higher", Bound: 0.10}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	for _, c := range []struct {
		change []float64
		want   string
	}{
		{scale(1.2), "improved"},
		{scale(1.0), "unchanged"},
		{scale(0.8), "regressed"},
	} {
		if _, _, got := verdict(m, base, c.change); got != c.want {
			t.Errorf("change %v: verdict %s, want %s", c.change[:2], got, c.want)
		}
	}
	noisy := []float64{50, 150, 60, 140, 70, 130, 100, 100, 90, 110}
	if _, _, got := verdict(m, noisy, scale(0.97)); got != "unresolved" {
		t.Errorf("spread wider than the bound: verdict %s, want unresolved", got)
	}
}
