package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunRejectsNegativeJobs(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-j", "-3", "-scale", "small"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "-j") {
		t.Fatalf("run(-j -3) = %v, want an error naming -j", err)
	}
	if stdout.Len() != 0 {
		t.Errorf("run(-j -3) printed %q", stdout.String())
	}
}

func TestRunSmallCell(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-workload", "gups", "-config", "4K+4K", "-scale", "small", "-j", "1"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v (stderr %q)", err, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"workload            gups\n", "configuration       4K+4K", "L1 TLB   hits "} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
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
