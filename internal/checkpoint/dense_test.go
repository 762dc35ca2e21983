package checkpoint_test

import (
	"path/filepath"
	"testing"

	"rvpsim/internal/checkpoint"
	"rvpsim/internal/core"
	"rvpsim/internal/obs"
	"rvpsim/internal/pipeline"
	"rvpsim/internal/workloads"
)

// TestCheckpointDeterminismDensePredictors extends the checkpoint
// determinism guarantee over every dense-state predictor shape: the
// per-static-instruction state is held in flat slices (sized lazily or
// via SizeHint) and the simulator restore path must rebuild its derived
// hot-loop state — issue-queue ring cursors, the pending-prediction
// pool's reference counts — at arbitrary, odd split points. Any
// mismatch between a resumed run and the uninterrupted reference run
// fails on the first committed instruction whose full event (timing
// included) differs.
func TestCheckpointDeterminismDensePredictors(t *testing.T) {
	const budget = 60_000
	// Odd primes so the snapshot lands mid-ring for every queue size.
	splits := []uint64{4999, 31337}
	preds := map[string]func() core.Predictor{
		"drvp":       func() core.Predictor { return core.MustDynamicRVP(core.DefaultCounterConfig()) },
		"drvp-loads": func() core.Predictor { return core.MustDynamicRVP(core.DefaultCounterConfig(), core.LoadsOnly()) },
		"static": func() core.Predictor {
			return core.NewStaticRVP("s", map[int]bool{2: true, 7: true, 11: true, 23: true}, nil)
		},
		"lvp":    func() core.Predictor { return core.MustLVP(core.DefaultLVPConfig(), "lvp") },
		"gabbay": func() core.Predictor { return core.MustGabbayRVP(core.DefaultCounterConfig(), false) },
	}

	prog, err := workloads.ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.BaselineConfig()
	cfg.Recovery = pipeline.RecoverSelective

	for name, mk := range preds {
		for _, split := range splits {
			t.Run(name, func(t *testing.T) {
				var refStream []obs.Event
				refSim := pipeline.MustNew(cfg)
				refSim.SetHooks(recordStream(&refStream))
				refStats, err := refSim.Run(prog, mk(), budget)
				if err != nil {
					t.Fatal(err)
				}

				simA := pipeline.MustNew(cfg)
				if _, err := simA.Run(prog, mk(), split); err != nil {
					t.Fatal(err)
				}
				snap, err := simA.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				path := filepath.Join(t.TempDir(), "run.ckpt")
				if err := checkpoint.Save(path, snap); err != nil {
					t.Fatal(err)
				}
				loaded, err := checkpoint.Load(path)
				if err != nil {
					t.Fatal(err)
				}

				var tail []obs.Event
				simB := pipeline.MustNew(cfg)
				simB.SetHooks(recordStream(&tail))
				gotStats, err := simB.ResumeContext(t.Context(), loaded, prog, mk(), budget)
				if err != nil {
					t.Fatal(err)
				}

				if gotStats != refStats {
					t.Errorf("%s split %d: resumed Stats differ:\n%v\nvs\n%v", name, split, gotStats, refStats)
				}
				want := refStream[split:]
				if len(tail) != len(want) {
					t.Fatalf("%s split %d: resumed run committed %d instructions, want %d", name, split, len(tail), len(want))
				}
				for i := range want {
					if tail[i] != want[i] {
						t.Fatalf("%s split %d: stream diverges at post-split instruction %d: got %+v want %+v",
							name, split, i, tail[i], want[i])
					}
				}
			})
		}
	}
}
