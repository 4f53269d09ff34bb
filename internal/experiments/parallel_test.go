package experiments

import (
	"reflect"
	"strings"
	"testing"

	"vdirect/internal/sched"
	"vdirect/internal/workload"
)

// TestRunGridDeterministicAcrossParallelism is the harness's core
// guarantee: fanning cells across workers changes nothing — same row
// order, same counters, bit-for-bit — and neither does replaying each
// cell over a cursor of one shared trace instead of its own build.
func TestRunGridDeterministicAcrossParallelism(t *testing.T) {
	wls := []string{"gups", "memcached"}
	configs := []string{"4K", "4K+4K", "DD", "4K+VD"}
	serial, err := RunGridOpts(sched.Config{Parallelism: 1}, wls, configs, Small, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunGridOpts(sched.Config{Parallelism: 8}, wls, configs, Small, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel rows differ from serial:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	for _, row := range parallel {
		own, err := Run(row.Result.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(row.Result, own) {
			t.Fatalf("%s/%s over a shared trace differs from its own build:\nshared: %+v\nown:    %+v",
				row.Workload, row.Config, row.Result, own)
		}
	}
}

// TestFigure13DeterministicAcrossParallelism checks the trial-level
// fan-out: per-trial bad-page seeds must be derived exactly as the
// serial loop derived them.
func TestFigure13DeterministicAcrossParallelism(t *testing.T) {
	serial, err := Figure13Opts(sched.Config{Parallelism: 1}, Small, 2, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Figure13Opts(sched.Config{Parallelism: 8}, Small, 2, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("figure 13 points differ:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}

// TestRunGridFirstErrorCancels exercises error propagation through the
// pool: a failing cell stops the grid and surfaces its error.
func TestRunGridFirstErrorCancels(t *testing.T) {
	_, err := RunGridOpts(sched.Config{Parallelism: 4},
		[]string{"gups"}, []string{"4K", "BOGUS", "DD"}, Small, 1)
	if err == nil {
		t.Fatal("grid with an unparsable config succeeded")
	}
	if !strings.Contains(err.Error(), "BOGUS") {
		t.Errorf("error does not name the failing cell: %v", err)
	}
}

// TestWarmupRoundingToZeroMeasuresWholeTrace covers the replay edge
// case: a warmup fraction that rounds to zero accesses must reset stats
// before the loop (the in-loop seen == warmupAt reset can never fire)
// and measure every access.
func TestWarmupRoundingToZeroMeasuresWholeTrace(t *testing.T) {
	spec, err := ParseConfig("4K")
	if err != nil {
		t.Fatal(err)
	}
	spec.Workload = "gups"
	spec.WL = Small.WLConfig(workload.BigMemory, 1)
	spec.WarmupFrac = 1e-12 // rounds to 0 accesses, distinct from the 0 = default sentinel
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := workload.New("gups", spec.WL).AccessCount()
	if res.Accesses != want {
		t.Errorf("measured %d accesses, want the whole trace (%d)", res.Accesses, want)
	}
	if res.Overhead <= 0 {
		t.Errorf("overhead = %v with stats reset before the loop", res.Overhead)
	}
}
