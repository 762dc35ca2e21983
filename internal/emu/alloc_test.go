package emu_test

import (
	"testing"

	"rvpsim/internal/emu"
	"rvpsim/internal/workloads"
)

// TestZeroAllocsPerInst guards both drivers' hot loops: once a state is
// built and its memory pages are touched, neither Run over 1M
// instructions nor a StepInto loop with a reused record may allocate.
func TestZeroAllocsPerInst(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; guard is meaningless under -race")
	}
	const n = 1_000_000
	for _, w := range workloads.All() {
		p, err := workloads.ByName(w.Name)
		if err != nil {
			t.Fatal(err)
		}
		s := emu.MustNew(p)
		s.Run(n) // touch the pages the next million instructions use
		run := testing.AllocsPerRun(1, func() { s.Run(n) })
		var e emu.Exec
		step := testing.AllocsPerRun(1, func() {
			for k := 0; k < n; k++ {
				s.StepInto(&e)
			}
		})
		if s.Err() != nil || s.Halted {
			t.Fatalf("%s: state stopped early (halted=%v err=%v)", w.Name, s.Halted, s.Err())
		}
		// One allocation per instruction would read 1.0; the bound admits
		// a page first touched in the measured window, not a per-instruction cost.
		if run/n > 0.001 || step/n > 0.001 {
			t.Errorf("%s: %.0f allocs in Run(%d), %.0f in %d StepInto calls", w.Name, run, n, step, n)
		}
	}
}
