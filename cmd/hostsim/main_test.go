package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestCheckSizing(t *testing.T) {
	for _, c := range []struct {
		mem, ops int
		ok       bool
	}{
		{8, 50000, true},
		{1, 1, true},
		{0, 1000, false},
		{-4, 1000, false},
		{8, 0, false},
		{8, -1000, false},
	} {
		if err := checkSizing(c.mem, c.ops); (err == nil) != c.ok {
			t.Errorf("checkSizing(%d, %d) = %v, want ok=%v", c.mem, c.ops, err, c.ok)
		}
	}
}

// TestRunRejectsBadCounts: host.Config would read these values as its
// defaults (2 tenants, 1 shard), so run must refuse them before any work.
func TestRunRejectsBadCounts(t *testing.T) {
	for _, c := range []struct{ flag, value string }{
		{"-tenants", "0"},
		{"-tenants", "-2"},
		{"-shards", "-1"},
	} {
		var stdout, stderr bytes.Buffer
		err := run([]string{c.flag, c.value}, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), c.flag) {
			t.Errorf("run(%s %s) = %v, want an error naming %s", c.flag, c.value, err, c.flag)
		}
		if stdout.Len() != 0 {
			t.Errorf("run(%s %s) printed %q", c.flag, c.value, stdout.String())
		}
	}
}

func TestRunSmallCell(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-guests", "1", "-tenants", "1", "-mem", "2", "-ops", "2000", "-shards", "0"}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v (stderr %q)", err, stderr.String())
	}
	if !strings.Contains(stdout.String(), "per-guest detail at density 1") {
		t.Errorf("output lacks the per-guest table:\n%s", stdout.String())
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
