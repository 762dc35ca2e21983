package pipeline_test

// Tests for warmed-state forking (warm.go) and recycled-runState
// determinism (sim.go newRunState/resetRunState). The contract under
// test: a run started from a forked WarmState commits the byte-identical
// architectural instruction/value stream as the tail of a cold run past
// the same boundary, any number of concurrent forks agree, and a Sim
// reused across runs is indistinguishable from a fresh one.

import (
	"sync"
	"testing"

	"rvpsim/internal/core"
	"rvpsim/internal/obs"
	"rvpsim/internal/pipeline"
	"rvpsim/internal/workloads"
)

// archRec is the architectural slice of one committed instruction —
// timing fields are deliberately excluded (a warmed run starts with cold
// caches where the cold run's tail had warm ones; architecture, not
// timing, is what forking preserves).
type archRec struct {
	Index int
	PC    uint64
	Wrote bool
	Rd    int
	Value uint64
}

// sinkHooks attaches fn to the commit stream through a registry-less
// observer.
func sinkHooks(fn func(e *obs.Event)) pipeline.Hooks {
	o := &obs.Observer{}
	o.AddSink(obs.SinkFunc(fn))
	return pipeline.Hooks{Observer: o}
}

func archSink(out *[]archRec) pipeline.Hooks {
	return sinkHooks(func(e *obs.Event) {
		*out = append(*out, archRec{Index: e.Index, PC: e.PC, Wrote: e.WroteRd, Rd: e.Rd, Value: e.Value})
	})
}

func diffStreams(t *testing.T, label string, want, got []archRec) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: committed %d instructions, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: commit %d diverges: got %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestWarmupForkEquivalence is the tentpole determinism guarantee: for
// each predictor, a run forked from a shared WarmState commits exactly
// the stream a cold run commits after the same number of instructions.
func TestWarmupForkEquivalence(t *testing.T) {
	const (
		warmN    = 40_000
		measureN = 60_000
	)
	prog, err := workloads.ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.BaselineConfig()
	warm, err := pipeline.Warmup(prog, warmN)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Insts != warmN {
		t.Fatalf("warmup executed %d insts, want %d", warm.Insts, warmN)
	}

	preds := map[string]func() core.Predictor{
		"none": func() core.Predictor { return core.NoPredictor{} },
		"drvp": func() core.Predictor { return core.MustDynamicRVP(core.DefaultCounterConfig()) },
		"lvp":  func() core.Predictor { return core.MustLVP(core.DefaultLVPConfig(), "lvp") },
	}
	for name, mk := range preds {
		t.Run(name, func(t *testing.T) {
			// Cold reference: run through warmup + measured phase in one
			// go, keep only the tail of the stream.
			var cold []archRec
			coldSim := pipeline.MustNew(cfg)
			coldSim.SetHooks(archSink(&cold))
			coldStats, err := coldSim.Run(prog, mk(), warmN+measureN)
			if err != nil {
				t.Fatal(err)
			}
			if coldStats.Committed != warmN+measureN {
				t.Fatalf("cold run committed %d, want %d", coldStats.Committed, warmN+measureN)
			}

			var warmed []archRec
			warmSim := pipeline.MustNew(cfg)
			warmSim.SetHooks(archSink(&warmed))
			warmStats, err := warmSim.RunWarmedContext(t.Context(), warm, prog, mk(), measureN)
			if err != nil {
				t.Fatal(err)
			}
			if warmStats.Committed != measureN {
				t.Fatalf("warmed run committed %d, want %d (measured phase only)", warmStats.Committed, measureN)
			}
			diffStreams(t, "warmed vs cold tail", cold[warmN:], warmed)
		})
	}
}

// TestWarmupConcurrentForks forks one WarmState from several goroutines
// at once (run under -race in CI): every fork must commit the identical
// stream, and none may corrupt the shared image for the others.
func TestWarmupConcurrentForks(t *testing.T) {
	const (
		warmN    = 20_000
		measureN = 30_000
		forks    = 4
	)
	prog, err := workloads.ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.BaselineConfig()
	warm, err := pipeline.Warmup(prog, warmN)
	if err != nil {
		t.Fatal(err)
	}

	streams := make([][]archRec, forks)
	var wg sync.WaitGroup
	for i := 0; i < forks; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sim := pipeline.MustNew(cfg)
			sim.SetHooks(archSink(&streams[i]))
			if _, err := sim.RunWarmedContext(t.Context(), warm, prog, core.MustDynamicRVP(core.DefaultCounterConfig()), measureN); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i := 1; i < forks; i++ {
		diffStreams(t, "fork disagreement", streams[0], streams[i])
	}
}

// TestWarmupZeroIsColdRun: a WarmState captured at instruction 0 must be
// a cold run in every observable respect, and so must a nil WarmState.
func TestWarmupZeroIsColdRun(t *testing.T) {
	const budget = 50_000
	prog, err := workloads.ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.BaselineConfig()

	var cold []archRec
	coldSim := pipeline.MustNew(cfg)
	coldSim.SetHooks(archSink(&cold))
	coldStats, err := coldSim.Run(prog, core.MustDynamicRVP(core.DefaultCounterConfig()), budget)
	if err != nil {
		t.Fatal(err)
	}

	warm, err := pipeline.Warmup(prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Insts != 0 {
		t.Fatalf("zero warmup executed %d insts", warm.Insts)
	}
	var warmed []archRec
	warmSim := pipeline.MustNew(cfg)
	warmSim.SetHooks(archSink(&warmed))
	warmStats, err := warmSim.RunWarmedContext(t.Context(), warm, prog, core.MustDynamicRVP(core.DefaultCounterConfig()), budget)
	if err != nil {
		t.Fatal(err)
	}
	if warmStats != coldStats {
		t.Fatalf("zero-warmup stats diverge from cold run:\n got %+v\nwant %+v", warmStats, coldStats)
	}
	diffStreams(t, "zero-warmup vs cold", cold, warmed)

	var viaNil []archRec
	nilSim := pipeline.MustNew(cfg)
	nilSim.SetHooks(archSink(&viaNil))
	nilStats, err := nilSim.RunWarmedContext(t.Context(), nil, prog, core.MustDynamicRVP(core.DefaultCounterConfig()), budget)
	if err != nil {
		t.Fatal(err)
	}
	if nilStats != coldStats {
		t.Fatalf("nil-warm stats diverge from cold run:\n got %+v\nwant %+v", nilStats, coldStats)
	}
	diffStreams(t, "nil-warm vs cold", cold, viaNil)
}

// TestWarmupForkValidation: forking a WarmState onto the wrong program
// must fail loudly, not silently mix state.
func TestWarmupForkValidation(t *testing.T) {
	li, err := workloads.ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	other, err := workloads.ByName("go")
	if err != nil {
		t.Fatal(err)
	}
	warm, err := pipeline.Warmup(li, 1_000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Fork(other); err == nil {
		t.Fatal("Fork accepted a different program")
	}
	if _, err := warm.Fork(nil); err == nil {
		t.Fatal("Fork accepted a nil program")
	}
	sim := pipeline.MustNew(pipeline.BaselineConfig())
	if _, err := sim.RunWarmedContext(t.Context(), warm, other, core.NoPredictor{}, 1_000); err == nil {
		t.Fatal("RunWarmedContext accepted a mismatched warm state")
	}
}

// TestWarmedRunCheckpointResume: a warmed run stays checkpointable — a
// snapshot taken mid-measured-phase resumes into a fresh simulator and
// finishes with the same stream tail and stats as the uninterrupted
// warmed run.
func TestWarmedRunCheckpointResume(t *testing.T) {
	const (
		warmN    = 20_000
		ckptAt   = 10_000
		measureN = 30_000
	)
	prog, err := workloads.ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.BaselineConfig()
	warm, err := pipeline.Warmup(prog, warmN)
	if err != nil {
		t.Fatal(err)
	}

	// Uninterrupted warmed reference.
	var ref []archRec
	refSim := pipeline.MustNew(cfg)
	refSim.SetHooks(archSink(&ref))
	refStats, err := refSim.RunWarmedContext(t.Context(), warm, prog, core.MustDynamicRVP(core.DefaultCounterConfig()), measureN)
	if err != nil {
		t.Fatal(err)
	}

	// Same run, snapshotted at ckptAt commits.
	var head []archRec
	var snap *pipeline.Snapshot
	runSim := pipeline.MustNew(cfg)
	hooks := archSink(&head)
	hooks.CheckpointEvery = ckptAt
	hooks.OnCheckpoint = func(s *pipeline.Snapshot) error {
		if snap == nil {
			snap = s
		}
		return nil
	}
	runSim.SetHooks(hooks)
	if _, err := runSim.RunWarmedContext(t.Context(), warm, prog, core.MustDynamicRVP(core.DefaultCounterConfig()), measureN); err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("checkpoint callback never fired during warmed run")
	}

	var tail []archRec
	resSim := pipeline.MustNew(cfg)
	resSim.SetHooks(archSink(&tail))
	resStats, err := resSim.ResumeContext(t.Context(), snap, prog, core.MustDynamicRVP(core.DefaultCounterConfig()), measureN)
	if err != nil {
		t.Fatal(err)
	}
	if resStats.Committed != refStats.Committed {
		t.Fatalf("resumed warmed run committed %d, want %d", resStats.Committed, refStats.Committed)
	}
	diffStreams(t, "resumed tail vs reference", ref[int(snap.Stats.Committed):], tail)
}

// TestSimReuseDeterminism proves the recycled-runState path: one Sim
// driven through a sweep-shaped sequence of runs (different predictors,
// different programs, a warmed run in the middle) commits, on every run,
// the identical stream a fresh Sim commits for the same cell.
func TestSimReuseDeterminism(t *testing.T) {
	const budget = 30_000
	li, err := workloads.ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	goProg, err := workloads.ByName("go")
	if err != nil {
		t.Fatal(err)
	}
	warm, err := pipeline.Warmup(li, 10_000)
	if err != nil {
		t.Fatal(err)
	}

	cells := []struct {
		name string
		run  func(sim *pipeline.Sim, h pipeline.Hooks) (pipeline.Stats, error)
	}{
		{"li/drvp", func(sim *pipeline.Sim, h pipeline.Hooks) (pipeline.Stats, error) {
			sim.SetHooks(h)
			return sim.Run(li, core.MustDynamicRVP(core.DefaultCounterConfig()), budget)
		}},
		{"go/none", func(sim *pipeline.Sim, h pipeline.Hooks) (pipeline.Stats, error) {
			sim.SetHooks(h)
			return sim.Run(goProg, core.NoPredictor{}, budget)
		}},
		{"li/lvp+warm", func(sim *pipeline.Sim, h pipeline.Hooks) (pipeline.Stats, error) {
			sim.SetHooks(h)
			return sim.RunWarmedContext(t.Context(), warm, li, core.MustLVP(core.DefaultLVPConfig(), "lvp"), budget)
		}},
		{"li/drvp-again", func(sim *pipeline.Sim, h pipeline.Hooks) (pipeline.Stats, error) {
			sim.SetHooks(h)
			return sim.Run(li, core.MustDynamicRVP(core.DefaultCounterConfig()), budget)
		}},
	}

	reused := pipeline.MustNew(pipeline.BaselineConfig())
	for _, c := range cells {
		var fresh, recycled []archRec
		fs := pipeline.MustNew(pipeline.BaselineConfig())
		wantStats, err := c.run(fs, archSink(&fresh))
		if err != nil {
			t.Fatalf("%s: fresh: %v", c.name, err)
		}
		gotStats, err := c.run(reused, archSink(&recycled))
		if err != nil {
			t.Fatalf("%s: reused: %v", c.name, err)
		}
		if gotStats != wantStats {
			t.Fatalf("%s: reused stats diverge:\n got %+v\nwant %+v", c.name, gotStats, wantStats)
		}
		diffStreams(t, c.name, fresh, recycled)
	}
}
