package pipeline_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"rvpsim/internal/core"
	"rvpsim/internal/pipeline"
	"rvpsim/internal/simerr"
)

// spinProg loops forever: the emulator never halts, so only the context
// (or a watchdog) can end the run.
const spinProg = `
.text
main:
        li      r1, 1
loop:
        addi    r2, r2, 1
        bne     r1, loop
        halt
`

// TestRunContextCanceled cancels a run of a non-terminating program and
// checks it stops at a commit-batch boundary with context.Canceled,
// structured coordinates, and coherent partial stats.
func TestRunContextCanceled(t *testing.T) {
	p := assemble(t, spinProg)
	sim := pipeline.MustNew(pipeline.BaselineConfig())
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	st, err := sim.RunWarmedContext(ctx, nil, p, core.NoPredictor{}, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	var se *simerr.SimError
	if !errors.As(err, &se) || se.Stage != "pipeline" {
		t.Fatalf("cancellation not reported as a pipeline SimError: %v", err)
	}
	if st.Committed == 0 || st.Committed%1024 != 0 {
		t.Errorf("run did not stop at a commit-batch boundary: committed %d", st.Committed)
	}
	if st.Cycles <= 0 {
		t.Errorf("partial stats incoherent: %d cycles for %d committed", st.Cycles, st.Committed)
	}
}

// TestRunContextPreCanceled checks an already-canceled context stops the
// run before any instruction commits.
func TestRunContextPreCanceled(t *testing.T) {
	p := assemble(t, spinProg)
	sim := pipeline.MustNew(pipeline.BaselineConfig())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st, err := sim.RunWarmedContext(ctx, nil, p, core.NoPredictor{}, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if st.Committed != 0 {
		t.Errorf("pre-canceled run committed %d instructions", st.Committed)
	}
}

// TestRunContextDeadline checks deadline expiry surfaces as
// context.DeadlineExceeded through the same path.
func TestRunContextDeadline(t *testing.T) {
	p := assemble(t, spinProg)
	sim := pipeline.MustNew(pipeline.BaselineConfig())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := sim.RunWarmedContext(ctx, nil, p, core.NoPredictor{}, 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
}

// TestWatchdogColdMiss arms a watchdog tighter than the memory system's
// cold-miss latency: the first load stalls commit past the bound and the
// run aborts with ErrNoProgress — no fault injection involved.
func TestWatchdogColdMiss(t *testing.T) {
	p := assemble(t, loopProg)
	cfg := pipeline.BaselineConfig()
	cfg.WatchdogCycles = 5 // far below the L1+L2 cold-miss latency
	sim := pipeline.MustNew(cfg)
	_, err := sim.Run(p, core.NoPredictor{}, 0)
	if !errors.Is(err, simerr.ErrNoProgress) {
		t.Fatalf("want ErrNoProgress, got %v", err)
	}
	var se *simerr.SimError
	if !errors.As(err, &se) || se.Stage != "pipeline" || !se.HasCycle || !se.HasPC {
		t.Fatalf("watchdog error lacks coordinates: %v", err)
	}
}

// TestWatchdogDisabledByDefault checks the zero value leaves the
// watchdog off: the same loop finishes cleanly.
func TestWatchdogDisabledByDefault(t *testing.T) {
	p := assemble(t, loopProg)
	sim := pipeline.MustNew(pipeline.BaselineConfig())
	if _, err := sim.Run(p, core.NoPredictor{}, 0); err != nil {
		t.Fatalf("unfaulted run failed: %v", err)
	}
}

// TestConfigErrors checks pipeline.New rejects invalid machine and
// memory configurations with errors wrapping ErrConfig.
func TestConfigErrors(t *testing.T) {
	bad := []func(*pipeline.Config){
		func(c *pipeline.Config) { c.FetchWidth = 0 },
		func(c *pipeline.Config) { c.Window = -1 },
		func(c *pipeline.Config) { c.WatchdogCycles = -1 },
		func(c *pipeline.Config) { c.Mem.L1D.Assoc = 0 },
	}
	for i, mutate := range bad {
		cfg := pipeline.BaselineConfig()
		mutate(&cfg)
		if _, err := pipeline.New(cfg); !errors.Is(err, simerr.ErrConfig) {
			t.Errorf("case %d: want ErrConfig, got %v", i, err)
		}
	}
}
