package sched

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vdirect/internal/telemetry"
)

func TestRunCollectsInOrder(t *testing.T) {
	for _, parallelism := range []int{1, 4, 16} {
		got, err := Run(Config{Parallelism: parallelism}, 100, func(i int) (int, error) {
			if i%7 == 0 {
				time.Sleep(time.Millisecond) // shuffle completion order
			}
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", parallelism, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("p=%d: result[%d] = %d", parallelism, i, v)
			}
		}
	}
}

func TestRunZeroCells(t *testing.T) {
	got, err := Run(Config{}, 0, func(i int) (int, error) { return 0, errors.New("never") })
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestRunFirstErrorCancels(t *testing.T) {
	boom := errors.New("boom")
	var executed atomic.Int64
	_, err := Run(Config{Parallelism: 2}, 100, func(i int) (int, error) {
		executed.Add(1)
		if i == 5 {
			return 0, fmt.Errorf("cell %d: %w", i, boom)
		}
		time.Sleep(time.Millisecond)
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// Cancellation must stop the pool long before all 100 cells run;
	// allow generous slack for cells already in flight.
	if n := executed.Load(); n >= 50 {
		t.Errorf("%d cells executed after first error", n)
	}
}

func TestRunReturnsLowestIndexedError(t *testing.T) {
	// Serial execution must report exactly the error a serial loop
	// would have stopped at.
	_, err := Run(Config{Parallelism: 1}, 10, func(i int) (int, error) {
		if i >= 3 {
			return 0, fmt.Errorf("cell %d failed", i)
		}
		return i, nil
	})
	if err == nil || err.Error() != "cell 3 failed" {
		t.Fatalf("err = %v", err)
	}
}

func TestSharedLimiterBoundsConcurrency(t *testing.T) {
	lim := NewLimiter(2)
	var inFlight, maxInFlight atomic.Int64
	cell := func(i int) (int, error) {
		cur := inFlight.Add(1)
		for {
			max := maxInFlight.Load()
			if cur <= max || maxInFlight.CompareAndSwap(max, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
		return i, nil
	}
	// Two pools submitting concurrently share the two slots.
	err := Tasks(
		func() error { _, err := Run(Config{Limiter: lim}, 20, cell); return err },
		func() error { _, err := Run(Config{Limiter: lim}, 20, cell); return err },
	)
	if err != nil {
		t.Fatal(err)
	}
	if m := maxInFlight.Load(); m > 2 {
		t.Errorf("max in-flight cells = %d with a 2-slot limiter", m)
	}
}

func TestProgressAggregatesAcrossPools(t *testing.T) {
	var mu sync.Mutex
	var lastDone, lastTotal int
	pr := telemetry.NewProgress(func(done, total int) {
		mu.Lock()
		lastDone, lastTotal = done, total
		mu.Unlock()
	})
	cfg := Config{Parallelism: 4, Progress: pr}
	err := Tasks(
		func() error { _, err := Run(cfg, 10, func(i int) (int, error) { return i, nil }); return err },
		func() error { _, err := Run(cfg, 15, func(i int) (int, error) { return i, nil }); return err },
	)
	if err != nil {
		t.Fatal(err)
	}
	if lastDone != 25 || lastTotal != 25 {
		t.Errorf("final progress = %d/%d, want 25/25", lastDone, lastTotal)
	}
}

func TestTasksReturnsLowestIndexedError(t *testing.T) {
	errA := errors.New("a")
	err := Tasks(
		func() error { time.Sleep(2 * time.Millisecond); return errA },
		func() error { return errors.New("b") },
		func() error { return nil },
	)
	if err != errA {
		t.Fatalf("err = %v, want task-order first error", err)
	}
}

func TestNilProgressSafe(t *testing.T) {
	var pr *telemetry.Progress
	pr.Expect(3)
	pr.Finish()
	if _, err := Run(Config{Parallelism: 2}, 5, func(i int) (int, error) { return i, nil }); err != nil {
		t.Fatal(err)
	}
}

func TestRunRecordsCellSpans(t *testing.T) {
	run := telemetry.StartRun("sched-test", nil, true)
	defer run.Stop()
	_, err := Run(Config{Parallelism: 2, Section: "figure1", SpanName: func(i int) string {
		return fmt.Sprintf("cell-%d", i)
	}}, 6, func(i int) (int, error) { return i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if got := run.Tracer().Len(); got != 6 {
		t.Errorf("traced %d cell spans, want 6", got)
	}
	timings := run.Timings()
	if got := len(timings); got != 6 {
		t.Errorf("manifest has %d cell timings, want 6", got)
	}
	for _, tm := range timings {
		if tm.Section != "figure1" {
			t.Errorf("cell timing %+v does not name its section", tm)
		}
	}
	if secs := run.Manifest(nil).Sections; len(secs) != 1 || secs[0].Name != "figure1" || secs[0].Cells != 6 {
		t.Errorf("manifest sections = %+v, want figure1 with 6 cells", secs)
	}
}

func TestRunShardedDeterministicAcrossShards(t *testing.T) {
	// Peers of different lengths: totals and per-peer step counts must
	// be identical at any shard count.
	run := func(shards int) ([]int, int) {
		const n = 7
		steps := make([]int, n)
		rounds := 0
		err := RunSharded(shards, n, func(i int) (bool, error) {
			steps[i]++
			return steps[i] > i, nil // peer i needs i+1 rounds
		}, func(round int) error {
			rounds++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return steps, rounds
	}
	ref, refRounds := run(1)
	for _, shards := range []int{2, 4, 16} {
		got, rounds := run(shards)
		if rounds != refRounds {
			t.Fatalf("shards=%d: %d rounds, want %d", shards, rounds, refRounds)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("shards=%d: peer %d stepped %d times, want %d", shards, i, got[i], ref[i])
			}
		}
	}
}

func TestRunShardedLowestPeerErrorWins(t *testing.T) {
	errs := []error{nil, errors.New("peer1"), nil, errors.New("peer3")}
	for _, shards := range []int{1, 2, 4} {
		err := RunSharded(shards, 4, func(i int) (bool, error) {
			return true, errs[i]
		}, nil)
		if err != errs[1] {
			t.Fatalf("shards=%d: err = %v, want lowest-peer error %v", shards, err, errs[1])
		}
	}
}

func TestRunShardedBarrierError(t *testing.T) {
	wantErr := errors.New("barrier")
	var stepped atomic.Int64
	err := RunSharded(2, 4, func(i int) (bool, error) {
		stepped.Add(1)
		return false, nil
	}, func(round int) error {
		return wantErr
	})
	if err != wantErr {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	if got := stepped.Load(); got != 4 {
		t.Fatalf("stepped %d peers before barrier error, want 4", got)
	}
}

func TestRunShardedEmpty(t *testing.T) {
	if err := RunSharded(4, 0, func(int) (bool, error) {
		t.Fatal("step called with n=0")
		return true, nil
	}, nil); err != nil {
		t.Fatal(err)
	}
}
