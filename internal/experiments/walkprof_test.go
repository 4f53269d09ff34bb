package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"vdirect/internal/sched"
	"vdirect/internal/telemetry/walkprof"
	"vdirect/internal/workload"
)

// sampledGridBytes runs a small grid with walk sampling enabled at the
// given period and returns the encoded sample file — the byte-exact
// artifact the determinism contract is stated over.
func sampledGridBytes(t *testing.T, parallelism int, period uint64) []byte {
	t.Helper()
	p := walkprof.Enable(period)
	defer p.Stop()
	_, err := RunGridOpts(sched.Config{Parallelism: parallelism},
		[]string{"gups", "memcached"}, []string{"4K+4K", "DD", "4K+VD"}, Small, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := p.Snapshot()
	if d.NumSamples() == 0 {
		t.Fatal("sampling enabled but no samples collected")
	}
	var buf bytes.Buffer
	if err := walkprof.Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWalkSamplingDeterministicAcrossParallelism is satellite S3's grid
// half: the same seed and cell set must yield byte-identical sample
// streams whether cells run serially or fanned across eight workers.
// The stride sampler is cell-private state driven only by that cell's
// miss stream, and the dump orders cells canonically, so worker
// scheduling has nowhere to leak in.
func TestWalkSamplingDeterministicAcrossParallelism(t *testing.T) {
	serial := sampledGridBytes(t, 1, 16)
	parallel := sampledGridBytes(t, 8, 16)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("sample files differ between -j1 (%d bytes) and -j8 (%d bytes)",
			len(serial), len(parallel))
	}
}

// sampledConsolidationBytes is the sharded-cell counterpart: tenants
// partitioned across shard goroutines, samplers tenant-private.
func sampledConsolidationBytes(t *testing.T, shards int) []byte {
	t.Helper()
	p := walkprof.Enable(16)
	defer p.Stop()
	if _, err := ConsolidationStudy(sched.Config{}, Small, []string{"gups"}, 4, shards); err != nil {
		t.Fatal(err)
	}
	d := p.Snapshot()
	if d.NumSamples() == 0 {
		t.Fatal("sampling enabled but no samples collected")
	}
	var buf bytes.Buffer
	if err := walkprof.Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWalkSamplingDeterministicAcrossShards is satellite S3's shard
// half: the consolidation study's intra-cell partitioning (1, 2, 4
// shard goroutines) must not change a single sample byte.
func TestWalkSamplingDeterministicAcrossShards(t *testing.T) {
	base := sampledConsolidationBytes(t, 1)
	for _, shards := range []int{2, 4} {
		if got := sampledConsolidationBytes(t, shards); !bytes.Equal(base, got) {
			t.Errorf("shards=%d: sample file differs from serial (%d vs %d bytes)",
				shards, len(got), len(base))
		}
	}
}

// TestWalkSamplingDoesNotPerturbResults runs the same grid with
// sampling off and on and requires identical Results: observation must
// not change the experiment. (The MMU-level counterpart checks raw
// Stats; this covers the whole harness path including warmup resets.)
func TestWalkSamplingDoesNotPerturbResults(t *testing.T) {
	wls := []string{"gups"}
	configs := []string{"4K+4K", "DD"}
	plain, err := RunGridOpts(sched.Config{Parallelism: 1}, wls, configs, Small, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := walkprof.Enable(walkprof.DefaultPeriod)
	defer p.Stop()
	sampled, err := RunGridOpts(sched.Config{Parallelism: 1}, wls, configs, Small, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, sampled) {
		t.Fatalf("results differ with sampling on:\noff: %+v\non:  %+v", plain, sampled)
	}
}

// TestWalkSamplingAccuracy is the acceptance bound: period-scaled
// estimates from 1-in-64 samples must reproduce the cell's aggregate
// walk refs and cycles within sampling error (25% on a Small gups
// cell; the estimator is unbiased, so error shrinks with trace length).
func TestWalkSamplingAccuracy(t *testing.T) {
	p := walkprof.Enable(walkprof.DefaultPeriod)
	defer p.Stop()
	spec, err := ParseConfig("4K+4K")
	if err != nil {
		t.Fatal(err)
	}
	spec.Workload = "gups"
	spec.WL = Small.WLConfig(workload.BigMemory, 1)
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	d := p.Snapshot()
	schemes, _ := walkprof.Attribution(d)
	if len(schemes) == 0 {
		t.Fatal("no samples attributed")
	}
	var estRefs, estCycles uint64
	for _, a := range schemes {
		estRefs += a.EstRefs(d.Period)
		estCycles += a.EstCycles(d.Period)
	}
	within := func(name string, est, actual uint64) {
		t.Helper()
		if actual == 0 {
			t.Fatalf("%s: aggregate is zero", name)
		}
		ratio := float64(est) / float64(actual)
		if ratio < 0.75 || ratio > 1.25 {
			t.Errorf("%s: estimate %d vs actual %d (ratio %.3f outside [0.75,1.25])",
				name, est, actual, ratio)
		}
	}
	within("walk refs", estRefs, res.Stats.WalkMemRefs)
	within("walk cycles", estCycles, res.WalkCycles)
}
