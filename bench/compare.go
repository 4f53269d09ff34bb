package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// sampleDoc is the part of a -json file that -compare reads.
type sampleDoc struct {
	Workloads []struct {
		Name    string                 `json:"name"`
		Metrics map[string]metricValue `json:"metrics"`
	} `json:"workloads"`
}

// readDocs reads one or more concatenated -json documents (one per run).
func readDocs(path string) ([]sampleDoc, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	var docs []sampleDoc
	for {
		var d sampleDoc
		if err := dec.Decode(&d); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("bench: reading %s: %w", path, err)
		}
		docs = append(docs, d)
	}
	if len(docs) == 0 {
		return nil, fmt.Errorf("bench: %s holds no runs", path)
	}
	return docs, nil
}

// values returns, per workload and end-to-end metric, one value per run
// (the run's median) when the file holds several runs, and the run's own
// samples when it holds one.
func values(docs []sampleDoc) map[[2]string][]float64 {
	out := map[[2]string][]float64{}
	for _, d := range docs {
		for _, w := range d.Workloads {
			for name, v := range w.Metrics {
				k := [2]string{w.Name, name}
				if len(docs) == 1 {
					out[k] = v.Samples
				} else {
					out[k] = append(out[k], v.Value)
				}
			}
		}
	}
	return out
}

// verdict applies the pairwise rule: a change improved a metric when it
// wins at least nine tenths of the pairs and the medians differ by more
// than the parent's interquartile range; it regressed when its median is
// worse than the parent's by more than the bound; a parent spread wider
// than the bound leaves the metric unresolved unless every change value
// beats every parent value.
func verdict(m metricDef, parent, change []float64) (win float64, pairs int, v string) {
	better := func(a, b float64) bool {
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	pairs = min(len(parent), len(change))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	if pairs > 0 {
		win = float64(wins) / float64(pairs)
	}
	pm, cm := median(parent), median(change)
	q1, q3 := quartiles(parent)
	worse := (cm - pm) / pm
	if m.Better == "higher" {
		worse = -worse
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	switch {
	case pairs == 0:
		return 0, 0, "unresolved"
	case win >= 0.9 && math.Abs(cm-pm) > q3-q1 && better(cm, pm):
		return win, pairs, "improved"
	case (q3-q1)/pm > m.Bound:
		if allBetter {
			return win, pairs, "improved"
		}
		return win, pairs, "unresolved"
	case worse > m.Bound:
		return win, pairs, "regressed"
	}
	return win, pairs, "unchanged"
}

// compareFiles prints a verdict per workload and end-to-end metric.
func compareFiles(out io.Writer, parentPath, changePath string) error {
	pd, err := readDocs(parentPath)
	if err != nil {
		return err
	}
	cd, err := readDocs(changePath)
	if err != nil {
		return err
	}
	pv, cv := values(pd), values(cd)
	fmt.Fprintf(out, "%-18s %-14s %5s %6s %30s %30s  %s\n", "workload", "metric", "pairs", "wins", "parent median [q1, q3]", "change median [q1, q3]", "verdict")
	for _, w := range workloads {
		for _, m := range endToEnd {
			k := [2]string{w.Name, m.Name}
			p, c := pv[k], cv[k]
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			win, pairs, v := verdict(m, p, c)
			pq1, pq3 := quartiles(p)
			cq1, cq3 := quartiles(c)
			fmt.Fprintf(out, "%-18s %-14s %5d %5.0f%% %30s %30s  %s (bound %.0f%%)\n", w.Name, m.Name, pairs, 100*win,
				fmt.Sprintf("%.5g [%.5g, %.5g]", median(p), pq1, pq3),
				fmt.Sprintf("%.5g [%.5g, %.5g]", median(c), cq1, cq3), v, 100*m.Bound)
		}
	}
	return nil
}
