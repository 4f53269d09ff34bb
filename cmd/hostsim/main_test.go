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

// TestRunRejectsBadCounts: host.Config would read the tenant and shard
// values as its defaults (2 tenants, 1 shard), and a sweep with no
// guests has no last density to detail, so run must refuse them before
// any work. Each case ends with the bad flag and its value.
func TestRunRejectsBadCounts(t *testing.T) {
	for _, args := range [][]string{
		{"-tenants", "0"},
		{"-tenants", "-2"},
		{"-shards", "-1"},
		{"-guests", "0"},
		{"-sweep", "-guests", "0"},
		{"-sweep", "-guests", "-1"},
	} {
		flagName := args[len(args)-2]
		var stdout, stderr bytes.Buffer
		err := run(args, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), flagName) {
			t.Errorf("run(%v) = %v, want an error naming %s", args, err, flagName)
		}
		if stdout.Len() != 0 {
			t.Errorf("run(%v) printed %q", args, stdout.String())
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

// TestRunRefusesOversizedHost: auto-sizing a host for this many guests
// passes host.MaxHostMemory, so the cell and the sweep both fail with
// the limit error before any host memory is allocated. The 2^62 − 1
// sweep used to panic sizing its result slice by the density.
func TestRunRefusesOversizedHost(t *testing.T) {
	for _, args := range [][]string{
		{"-guests", "100000"},
		{"-sweep", "-guests", "100000"},
		{"-sweep", "-guests", "4611686018427387903"},
		{"-hostmb", "1000000"},
	} {
		var stdout, stderr bytes.Buffer
		err := run(args, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), "limit") {
			t.Errorf("run(%v) = %v, want the host memory limit error", args, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("run(%v) printed %q", args, stdout.String())
		}
	}
}
