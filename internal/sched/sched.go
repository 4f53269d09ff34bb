// Package sched is the parallel experiment scheduler: a bounded worker
// pool that fans independent simulation cells across cores while
// keeping output bit-for-bit deterministic. Every cell builds a private
// simulation stack and derives its RNG seeds from its Spec alone, so
// execution order cannot change any result; Run therefore collects
// results by cell index and returns them in submission order, making a
// parallel run byte-identical to a serial one.
package sched

import (
	"runtime"
	"sync"
	"sync/atomic"

	"vdirect/internal/telemetry"
)

// Config controls how a Run executes.
type Config struct {
	// Parallelism bounds concurrently executing cells. 0 means
	// runtime.GOMAXPROCS(0); 1 reproduces strictly serial execution.
	Parallelism int
	// Limiter, when non-nil, shares one concurrency budget across
	// several Run calls (the sections of a full reproduction submit to
	// the same Limiter); Parallelism is then ignored.
	Limiter *Limiter
	// Progress, when non-nil, receives cell registration and completion
	// events for live reporting.
	Progress *telemetry.Progress
	// SpanName, when non-nil, names the telemetry span wrapped around
	// cell i. It is only consulted while a telemetry run is active, so
	// the closure costs nothing otherwise.
	SpanName func(i int) string
	// Section, when non-empty, names the report section the cells run
	// under; their manifest timings carry it.
	Section string
}

// workers returns the effective worker count for n cells.
func (c Config) workers(n int) int {
	p := c.Parallelism
	if c.Limiter != nil {
		p = c.Limiter.capacity
	}
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > n {
		p = n
	}
	return p
}

// Limiter is a counting semaphore shared by concurrent Run calls so
// that their combined in-flight cells never exceed its capacity.
type Limiter struct {
	capacity int
	slots    chan struct{}
}

// NewLimiter builds a limiter admitting parallelism concurrent cells
// (0 or negative means runtime.GOMAXPROCS(0)).
func NewLimiter(parallelism int) *Limiter {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	return &Limiter{capacity: parallelism, slots: make(chan struct{}, parallelism)}
}

func (l *Limiter) acquire() { l.slots <- struct{}{} }
func (l *Limiter) release() { <-l.slots }

// Run executes fn(i) for every i in [0, n) on a bounded worker pool and
// returns the results indexed by i — the same order a serial loop would
// produce. The first error (lowest cell index among those observed)
// cancels all not-yet-started cells and is returned; with Parallelism 1
// this is exactly the error a serial loop would stop at.
func Run[T any](cfg Config, n int, fn func(i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	if n == 0 {
		return results, nil
	}
	cfg.Progress.Expect(n)
	var (
		next     atomic.Int64
		canceled atomic.Bool
		mu       sync.Mutex
		firstIdx = n
		firstErr error
		wg       sync.WaitGroup
	)
	workers := cfg.workers(n)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || canceled.Load() {
					return
				}
				if cfg.Limiter != nil {
					cfg.Limiter.acquire()
				}
				// The span brackets the cell's execution, not its wait
				// for a limiter slot, so trace rows show simulation
				// time rather than queueing.
				var span telemetry.Span
				if cfg.SpanName != nil && telemetry.Active() {
					span = telemetry.StartSpanIn(cfg.Section, "cell", cfg.SpanName(i))
				}
				res, err := fn(i)
				span.End()
				if cfg.Limiter != nil {
					cfg.Limiter.release()
				}
				if err != nil {
					canceled.Store(true)
					mu.Lock()
					if i < firstIdx {
						firstIdx, firstErr = i, err
					}
					mu.Unlock()
					return
				}
				results[i] = res
				cfg.Progress.Finish()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}

// RunSharded advances n peers in quantum lockstep across shard
// goroutines: each round, shard s calls step(i) once for every live
// peer i with i%shards == s, shards running concurrently; when every
// shard finishes the round, barrier(round) (if non-nil) runs serially
// on the coordinator. The loop continues until every peer has reported
// done or an error occurs.
//
// Determinism contract: a peer is stepped by exactly one goroutine per
// round and rounds are separated by a full join, so peer-private state
// (including caller-side per-peer accumulators indexed by peer) never
// races and results are identical at any shard count. On error the
// lowest-numbered failing peer of the round wins — the same error a
// serial loop stepping peers in order would stop at. The barrier is the
// serial seam: host-global mutations (policy churn, shared-resource
// ops) belong there, never in step.
func RunSharded(shards, n int, step func(peer int) (done bool, err error), barrier func(round int) error) error {
	if n == 0 {
		return nil
	}
	if shards <= 0 {
		shards = 1
	}
	if shards > n {
		shards = n
	}
	done := make([]bool, n)
	remaining := n
	for round := 0; remaining > 0; round++ {
		var (
			wg       sync.WaitGroup
			errMu    sync.Mutex
			errIdx   = n
			firstErr error
		)
		wg.Add(shards)
		for s := 0; s < shards; s++ {
			go func(s int) {
				defer wg.Done()
				for i := s; i < n; i += shards {
					if done[i] {
						continue
					}
					d, err := step(i)
					if err != nil {
						errMu.Lock()
						if i < errIdx {
							errIdx, firstErr = i, err
						}
						errMu.Unlock()
						done[i] = true
						continue
					}
					if d {
						done[i] = true
					}
				}
			}(s)
		}
		wg.Wait()
		if firstErr != nil {
			return firstErr
		}
		remaining = 0
		for _, d := range done {
			if !d {
				remaining++
			}
		}
		if barrier != nil {
			if err := barrier(round); err != nil {
				return err
			}
		}
	}
	return nil
}

// Tasks runs the given functions concurrently — one goroutine each —
// and returns the error of the lowest-indexed task that failed. Tasks
// are coarse units (whole report sections) and are deliberately not
// charged against any Limiter: each task is expected to submit its own
// cells through Run with a shared Limiter, which is where the
// machine-wide concurrency bound lives.
func Tasks(tasks ...func() error) error {
	errs := make([]error, len(tasks))
	var wg sync.WaitGroup
	wg.Add(len(tasks))
	for i, task := range tasks {
		go func(i int, task func() error) {
			defer wg.Done()
			errs[i] = task()
		}(i, task)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
