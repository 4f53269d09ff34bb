package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"vdirect/internal/addr"
	"vdirect/internal/telemetry/walkprof"
)

// sampleFile writes a small two-page sample file and returns its path.
func sampleFile(t *testing.T) string {
	t.Helper()
	var samples []walkprof.Sample
	for i := uint64(0); i < 6; i++ {
		samples = append(samples, walkprof.Sample{
			VPN: 0x400 + i%2, Size: addr.Page4K, Class: walkprof.ClassWalkNeither,
			Scheme: "Base", Refs: 24, Cycles: 100 + i,
		})
	}
	path := filepath.Join(t.TempDir(), "walks.jsonl")
	d := walkprof.Dump{
		SchemaVersion: walkprof.SchemaVersion,
		Period:        1,
		Cells:         []walkprof.CellDump{{Cell: "gups/4K+4K", Samples: samples}},
	}
	if err := walkprof.WriteFile(path, d); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunRejectsTopBelowOne(t *testing.T) {
	path := sampleFile(t)
	for _, top := range []string{"0", "-3"} {
		var stdout, stderr bytes.Buffer
		err := run([]string{"-top", top, path}, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), "-top") {
			t.Errorf("run(-top %s) = %v, want an error naming -top", top, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("run(-top %s) printed %q", top, stdout.String())
		}
	}
}

func TestRunReport(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-top", "1", sampleFile(t)}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v (stderr %q)", err, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "top 1 hot pages") {
		t.Errorf("report lacks the top-1 table:\n%s", out)
	}
	if strings.Contains(out, "0x401") && strings.Contains(out, "0x400") {
		t.Errorf("-top 1 listed both pages:\n%s", out)
	}
}

func TestRunArgCount(t *testing.T) {
	path := sampleFile(t)
	for _, args := range [][]string{{}, {path, path}} {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err == nil || !strings.Contains(err.Error(), "exactly one sample file") {
			t.Errorf("run(%q) = %v, want an argument-count error", args, err)
		}
	}
}

func TestRunBadFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-bogus"}, &stdout, &stderr); err == nil {
		t.Fatal("run(-bogus) succeeded")
	}
	if !strings.Contains(stderr.String(), "-bogus") {
		t.Errorf("stderr %q does not name the bad flag", stderr.String())
	}
}
