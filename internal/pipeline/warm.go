package pipeline

import (
	"fmt"

	"rvpsim/internal/emu"
	"rvpsim/internal/program"
	"rvpsim/internal/simerr"
)

// WarmState is a functionally-warmed architectural starting point for
// timed runs: the register file, memory image, PC, and commit count
// after fast-forwarding a program through some instructions on the
// reference emulator alone. No timing model, caches, or predictors are
// involved, so the state is predictor- and machine-configuration-
// independent — internal/exp computes one WarmState per workload and
// forks it into every (predictor, config) cell of a sweep.
//
// A WarmState is immutable after Warmup returns and safe to Fork from
// any number of goroutines concurrently.
type WarmState struct {
	Prog     string // program name, for identity validation
	NumInsts int    // static instruction count, ditto
	Insts    uint64 // instructions executed during warmup
	Arch     emu.Snapshot
}

// Warmup fast-forwards prog through at most insts committed instructions
// on the architectural emulator and captures the resulting state. The
// committed instruction/value stream is architecturally determined, so a
// timed run started from this state commits the byte-identical stream as
// one that performed the same fast-forward privately (proved by
// TestWarmupForkEquivalence). insts == 0 captures the program's initial
// state; a program that halts before the budget yields a halted state
// (the measured phase then commits nothing, exactly like a cold run of a
// workload shorter than its warmup).
func Warmup(prog *program.Program, insts uint64) (*WarmState, error) {
	st, err := emu.New(prog)
	if err != nil {
		return nil, simerr.New("warmup", err)
	}
	if insts > 0 {
		st.Run(insts)
		if st.Err() != nil {
			return nil, simerr.New("warmup", fmt.Errorf("oracle: %w", st.Err()))
		}
	}
	return &WarmState{
		Prog:     prog.Name,
		NumInsts: len(prog.Insts),
		Insts:    st.Count,
		Arch:     st.Snapshot(),
	}, nil
}

// Fork builds an independent architectural state at the warmup boundary
// using copy-on-write memory: the warmed image's pages are shared until
// the forked run first writes them (see emu.Fork), so N cells pay one
// warmup and one image instead of N. The WarmState itself is never
// mutated; forks may be taken concurrently.
func (w *WarmState) Fork(prog *program.Program) (*emu.State, error) {
	if prog == nil || prog.Name != w.Prog || len(prog.Insts) != w.NumInsts {
		name, n := "<nil>", 0
		if prog != nil {
			name, n = prog.Name, len(prog.Insts)
		}
		return nil, simerr.New("warmup", fmt.Errorf(
			"warm state is for program %q (%d insts), not %q (%d insts): %w",
			w.Prog, w.NumInsts, name, n, simerr.ErrCorrupt))
	}
	st, err := emu.Fork(prog, w.Arch)
	if err != nil {
		return nil, simerr.New("warmup", err)
	}
	return st, nil
}
