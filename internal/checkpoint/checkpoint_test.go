package checkpoint_test

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"rvpsim/internal/checkpoint"
	"rvpsim/internal/core"
	"rvpsim/internal/obs"
	"rvpsim/internal/pipeline"
	"rvpsim/internal/simerr"
	"rvpsim/internal/workloads"
)

// recordStream copies every committed instruction's full event —
// commit index, the five cycle stamps, the prediction outcome and the
// architectural PC/rd/value — so a resumed run is compared against the
// uninterrupted one in timing as well as architecture.
func recordStream(out *[]obs.Event) pipeline.Hooks {
	o := &obs.Observer{}
	o.AddSink(obs.SinkFunc(func(e *obs.Event) { *out = append(*out, *e) }))
	return pipeline.Hooks{Observer: o}
}

// TestCheckpointDeterminism is the tentpole guarantee: snapshot a run at
// a (pseudo-random) commit index, serialize the snapshot through the
// on-disk container, restore it into a fresh simulator and predictor,
// and the resumed run must emit the identical commit events — commit
// index, cycle stamps, prediction outcome, PC/rd/value — and end with
// identical final Stats as the uninterrupted run.
func TestCheckpointDeterminism(t *testing.T) {
	const budget = 100_000
	rng := rand.New(rand.NewSource(7))
	recoveries := []pipeline.Recovery{pipeline.RecoverRefetch, pipeline.RecoverReissue, pipeline.RecoverSelective}
	names := []string{"li", "go", "hydro2d"}

	for _, name := range names {
		for _, rec := range recoveries {
			t.Run(name+"/"+rec.String(), func(t *testing.T) {
				prog, err := workloads.ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				cfg := pipeline.BaselineConfig()
				cfg.Recovery = rec

				// Uninterrupted reference run.
				var refStream []obs.Event
				refSim := pipeline.MustNew(cfg)
				refSim.SetHooks(recordStream(&refStream))
				refStats, err := refSim.Run(prog, core.MustDynamicRVP(core.DefaultCounterConfig()), budget)
				if err != nil {
					t.Fatal(err)
				}

				// Partial run up to a random split, then snapshot.
				split := uint64(1_000 + rng.Intn(budget-2_000))
				simA := pipeline.MustNew(cfg)
				if _, err := simA.Run(prog, core.MustDynamicRVP(core.DefaultCounterConfig()), split); err != nil {
					t.Fatal(err)
				}
				snap, err := simA.Snapshot()
				if err != nil {
					t.Fatal(err)
				}

				// Round-trip the snapshot through the on-disk container.
				path := filepath.Join(t.TempDir(), "run.ckpt")
				if err := checkpoint.Save(path, snap); err != nil {
					t.Fatal(err)
				}
				loaded, err := checkpoint.Load(path)
				if err != nil {
					t.Fatal(err)
				}

				// Resume in a fresh simulator with a fresh predictor.
				var tail []obs.Event
				simB := pipeline.MustNew(cfg)
				simB.SetHooks(recordStream(&tail))
				gotStats, err := simB.ResumeContext(t.Context(), loaded, prog, core.MustDynamicRVP(core.DefaultCounterConfig()), budget)
				if err != nil {
					t.Fatal(err)
				}

				if gotStats != refStats {
					t.Errorf("resumed Stats differ from uninterrupted run (split %d):\n%v\nvs\n%v", split, gotStats, refStats)
				}
				want := refStream[split:]
				if len(tail) != len(want) {
					t.Fatalf("resumed run committed %d instructions after the split, want %d", len(tail), len(want))
				}
				for i := range want {
					if tail[i] != want[i] {
						t.Fatalf("committed stream diverges at post-split instruction %d (split %d): got %+v want %+v",
							i, split, tail[i], want[i])
					}
				}
			})
		}
	}
}

// TestCheckpointRoundTripLVP covers the buffer-kind predictor path: LVP
// state (values, tags, counters) must survive the round trip bit-exactly.
func TestCheckpointRoundTripLVP(t *testing.T) {
	const budget = 60_000
	prog, err := workloads.ByName("ijpeg")
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.BaselineConfig()

	var refStream []obs.Event
	refSim := pipeline.MustNew(cfg)
	refSim.SetHooks(recordStream(&refStream))
	refStats, err := refSim.Run(prog, core.MustLVP(core.DefaultLVPConfig(), "lvp"), budget)
	if err != nil {
		t.Fatal(err)
	}

	const split = 17_500
	simA := pipeline.MustNew(cfg)
	if _, err := simA.Run(prog, core.MustLVP(core.DefaultLVPConfig(), "lvp"), split); err != nil {
		t.Fatal(err)
	}
	snap, err := simA.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := checkpoint.Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := checkpoint.Decode(data)
	if err != nil {
		t.Fatal(err)
	}

	var tail []obs.Event
	simB := pipeline.MustNew(cfg)
	simB.SetHooks(recordStream(&tail))
	gotStats, err := simB.ResumeContext(t.Context(), loaded, prog, core.MustLVP(core.DefaultLVPConfig(), "lvp"), budget)
	if err != nil {
		t.Fatal(err)
	}
	if gotStats != refStats {
		t.Errorf("resumed LVP Stats differ:\n%v\nvs\n%v", gotStats, refStats)
	}
	for i, want := range refStream[split:] {
		if tail[i] != want {
			t.Fatalf("LVP committed stream diverges at post-split instruction %d", i)
		}
	}
}

// TestPeriodicCheckpointDoesNotPerturb: arming checkpoints must not
// change the committed stream or final Stats.
func TestPeriodicCheckpointDoesNotPerturb(t *testing.T) {
	const budget = 40_000
	prog, err := workloads.ByName("perl")
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.BaselineConfig()

	plain := pipeline.MustNew(cfg)
	wantStats, err := plain.Run(prog, core.MustDynamicRVP(core.DefaultCounterConfig()), budget)
	if err != nil {
		t.Fatal(err)
	}

	ckpt := pipeline.MustNew(cfg)
	saves := 0
	path := filepath.Join(t.TempDir(), "periodic.ckpt")
	ckpt.SetHooks(pipeline.Hooks{CheckpointEvery: 5_000, OnCheckpoint: func(snap *pipeline.Snapshot) error {
		saves++
		return checkpoint.Save(path, snap)
	}})
	gotStats, err := ckpt.Run(prog, core.MustDynamicRVP(core.DefaultCounterConfig()), budget)
	if err != nil {
		t.Fatal(err)
	}
	if gotStats != wantStats {
		t.Errorf("periodic checkpointing perturbed the run:\n%v\nvs\n%v", gotStats, wantStats)
	}
	if saves == 0 {
		t.Fatal("checkpoint callback never fired")
	}
	// The last periodic checkpoint must itself resume to the same end state.
	loaded, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	simB := pipeline.MustNew(cfg)
	resumed, err := simB.ResumeContext(t.Context(), loaded, prog, core.MustDynamicRVP(core.DefaultCounterConfig()), budget)
	if err != nil {
		t.Fatal(err)
	}
	if resumed != wantStats {
		t.Errorf("resume from periodic checkpoint differs:\n%v\nvs\n%v", resumed, wantStats)
	}
}

func mustSnapshot(t *testing.T) *pipeline.Snapshot {
	t.Helper()
	prog, err := workloads.ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	sim := pipeline.MustNew(pipeline.BaselineConfig())
	if _, err := sim.Run(prog, core.NoPredictor{}, 5_000); err != nil {
		t.Fatal(err)
	}
	snap, err := sim.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestLoadCorruption: every flavor of file damage must surface as
// simerr.ErrCorrupt, never a panic or a silently wrong snapshot.
func TestLoadCorruption(t *testing.T) {
	snap := mustSnapshot(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "x.ckpt")
	if err := checkpoint.Save(path, snap); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, mutate func([]byte) []byte) {
		t.Run(name, func(t *testing.T) {
			p := filepath.Join(dir, name+".ckpt")
			if err := os.WriteFile(p, mutate(append([]byte(nil), data...)), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := checkpoint.Load(p); !errors.Is(err, simerr.ErrCorrupt) {
				t.Errorf("want ErrCorrupt, got %v", err)
			}
		})
	}
	check("truncated-header", func(b []byte) []byte { return b[:10] })
	check("truncated-payload", func(b []byte) []byte { return b[:len(b)/2] })
	check("bad-magic", func(b []byte) []byte { b[0] ^= 0xFF; return b })
	check("bad-version", func(b []byte) []byte { b[8] = 0x7F; return b })
	check("flipped-payload-bit", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b })

	t.Run("missing-file", func(t *testing.T) {
		if _, err := checkpoint.Load(filepath.Join(dir, "nope.ckpt")); !os.IsNotExist(err) {
			t.Errorf("want not-exist, got %v", err)
		}
	})
	t.Run("no-temp-residue", func(t *testing.T) {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if filepath.Ext(e.Name()) != ".ckpt" {
				t.Errorf("unexpected residue file %s", e.Name())
			}
		}
	})
}

// TestResumeValidation: a snapshot restored against the wrong program,
// config, or predictor is rejected with ErrCorrupt — never misrestored.
func TestResumeValidation(t *testing.T) {
	snap := mustSnapshot(t)

	t.Run("wrong-program", func(t *testing.T) {
		other, err := workloads.ByName("go")
		if err != nil {
			t.Fatal(err)
		}
		sim := pipeline.MustNew(pipeline.BaselineConfig())
		if _, err := sim.ResumeContext(t.Context(), snap, other, core.NoPredictor{}, 10_000); !errors.Is(err, simerr.ErrCorrupt) {
			t.Errorf("want ErrCorrupt, got %v", err)
		}
	})
	t.Run("wrong-config", func(t *testing.T) {
		prog, err := workloads.ByName("li")
		if err != nil {
			t.Fatal(err)
		}
		sim := pipeline.MustNew(pipeline.AggressiveConfig())
		if _, err := sim.ResumeContext(t.Context(), snap, prog, core.NoPredictor{}, 10_000); !errors.Is(err, simerr.ErrCorrupt) {
			t.Errorf("want ErrCorrupt, got %v", err)
		}
	})
	t.Run("wrong-predictor", func(t *testing.T) {
		prog, err := workloads.ByName("li")
		if err != nil {
			t.Fatal(err)
		}
		sim := pipeline.MustNew(pipeline.BaselineConfig())
		if _, err := sim.ResumeContext(t.Context(), snap, prog, core.MustDynamicRVP(core.DefaultCounterConfig()), 10_000); !errors.Is(err, simerr.ErrCorrupt) {
			t.Errorf("want ErrCorrupt, got %v", err)
		}
	})
}
