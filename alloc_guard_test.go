package rvpsim_test

// Steady-state allocation guard for the simulator hot loop. A Run has
// unavoidable per-run setup cost (capacity rings, dense predictor
// state, the memory page table), so absolute allocs/op is nonzero; what
// must stay at zero is the marginal cost of simulating MORE
// instructions. The guard therefore measures the delta between a long
// and a short run: (allocs(300k) - allocs(100k)) / 200k extra
// instructions must be ~0. Any per-commit allocation sneaking back into
// the pipeline loop (pendingPred churn, commit events, map growth)
// shows up here as thousands of allocations and fails loudly.

import (
	"context"
	"sync"
	"testing"

	"rvpsim"
	"rvpsim/internal/core"
	"rvpsim/internal/pipeline"
	"rvpsim/internal/workloads"
)

const (
	allocGuardShort = 100_000
	allocGuardLong  = 300_000
)

func allocsForRun(t *testing.T, insts uint64, observer func() *rvpsim.Observer) float64 {
	t.Helper()
	prog, err := rvpsim.Workload("li")
	if err != nil {
		t.Fatal(err)
	}
	cfg := rvpsim.BaselineConfig()
	return testing.AllocsPerRun(3, func() {
		opts := rvpsim.RunOptions{MaxInsts: insts, Observer: observer()}
		if _, err := rvpsim.Run(context.Background(), prog, cfg, rvpsim.DynamicRVP(), opts); err != nil {
			t.Fatal(err)
		}
	})
}

// TestZeroAllocsPerCommit covers three run shapes: bare; a metrics
// registry only, which every experiments pass attaches; and a registry
// plus a no-op function sink, so the per-commit event path is live.
func TestZeroAllocsPerCommit(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; guard is meaningless under -race")
	}
	if testing.Short() {
		t.Skip("simulates 3.6M instructions; skipped with -short")
	}
	reg := rvpsim.NewObserver().Registry()
	shapes := []struct {
		name     string
		observer func() *rvpsim.Observer
	}{
		{"bare", func() *rvpsim.Observer { return nil }},
		{"registry", func() *rvpsim.Observer { return rvpsim.NewObserverWith(reg) }},
		{"registry+sink", func() *rvpsim.Observer {
			o := rvpsim.NewObserverWith(reg)
			o.AddSink(rvpsim.SinkFunc(func(*rvpsim.Event) {}))
			return o
		}},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			short := allocsForRun(t, allocGuardShort, sh.observer)
			long := allocsForRun(t, allocGuardLong, sh.observer)
			perCommit := (long - short) / float64(allocGuardLong-allocGuardShort)
			t.Logf("allocs: short(%d)=%.0f long(%d)=%.0f -> %.6f allocs/commit",
				allocGuardShort, short, allocGuardLong, long, perCommit)
			// Tolerance admits measurement noise (GC-triggered runtime
			// allocs), not real per-commit allocation: one alloc per
			// commit would read 1.0.
			if perCommit > 0.001 {
				t.Fatalf("steady-state allocation regression: %.6f allocs/commit (want ~0)", perCommit)
			}
		})
	}
}

// TestZeroAllocsPerCommitParallel is the same marginal-cost guard on the
// machine-saturation path: several goroutines each drive a private,
// reused simulator (the recycled-runState arena sweeps rely on), so any
// per-commit allocation OR cross-worker allocator contention structure
// (a shared pool, a global free list) that sneaks into the loop shows up
// as a nonzero delta. Workers each run to completion inside one
// AllocsPerRun body; the counter is process-wide, so the delta is
// normalized by total extra instructions across all workers.
func TestZeroAllocsPerCommitParallel(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; guard is meaningless under -race")
	}
	if testing.Short() {
		t.Skip("simulates 4.8M instructions; skipped with -short")
	}
	const workers = 4
	prog, err := workloads.ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.BaselineConfig()
	sims := make([]*pipeline.Sim, workers)
	preds := make([]*core.DynamicRVP, workers)
	for i := range sims {
		sims[i] = pipeline.MustNew(cfg)
		preds[i] = core.MustDynamicRVP(core.DefaultCounterConfig())
		// One warmup run so every worker's runState arena exists before
		// measurement — steady state, as in a sweep's second cell onward.
		if _, err := sims[i].Run(prog, preds[i], allocGuardShort); err != nil {
			t.Fatal(err)
		}
	}
	measure := func(insts uint64) float64 {
		return testing.AllocsPerRun(3, func() {
			var wg sync.WaitGroup
			for i := 0; i < workers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					if _, err := sims[i].Run(prog, preds[i], insts); err != nil {
						t.Error(err)
					}
				}(i)
			}
			wg.Wait()
		})
	}
	short := measure(allocGuardShort)
	long := measure(allocGuardLong)
	perCommit := (long - short) / float64(workers*(allocGuardLong-allocGuardShort))
	t.Logf("parallel allocs: short=%.0f long=%.0f -> %.6f allocs/commit (%d workers)",
		short, long, perCommit, workers)
	if perCommit > 0.001 {
		t.Fatalf("parallel steady-state allocation regression: %.6f allocs/commit (want ~0)", perCommit)
	}
}
