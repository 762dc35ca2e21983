// Regalloc demonstrates the paper's Section 7.3 compiler support: profile
// a workload's register-value reuse, re-allocate registers with Chaitin
// colouring so dead-register and last-value reuse become same-register
// reuse, and re-simulate the rewritten program with plain dynamic RVP —
// the realistic counterpart of Figure 7's ideal re-allocation bars.
package main

import (
	"context"
	"fmt"
	"log"

	"rvpsim"
)

func main() {
	const budget = 1_000_000
	ctx, opts := context.Background(), rvpsim.RunOptions{MaxInsts: budget}
	for _, wl := range []string{"hydro2d", "li", "su2cor"} {
		prog, err := rvpsim.Workload(wl)
		if err != nil {
			log.Fatal(err)
		}

		// Profile register-value reuse (the paper's train-input pass).
		prof, err := rvpsim.ProfileProgram(prog, budget/4)
		if err != nil {
			log.Fatal(err)
		}
		reuse := prof.LoadReuse()

		// Re-allocate registers to expose the profiled reuse.
		rewritten, report, err := rvpsim.Reallocate(prog, prof, 0.8)
		if err != nil {
			log.Fatal(err)
		}

		// Measure: baseline, RVP on the original, RVP on the rewritten.
		cfg := rvpsim.BaselineConfig()
		base, err := rvpsim.Run(ctx, prog, cfg, rvpsim.NoPrediction(), opts)
		if err != nil {
			log.Fatal(err)
		}
		before, err := rvpsim.Run(ctx, prog, cfg, rvpsim.DynamicRVP(), opts)
		if err != nil {
			log.Fatal(err)
		}
		after, err := rvpsim.Run(ctx, rewritten, cfg, rvpsim.DynamicRVP(), opts)
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("%s:\n", wl)
		fmt.Printf("  load reuse: same %.0f%%, dead %.0f%%, any %.0f%%, or-lvp %.0f%%\n",
			100*reuse.Same, 100*reuse.Dead, 100*reuse.Any, 100*reuse.OrLV)
		fmt.Printf("  re-allocation: %d dead reuses applied (%d dropped), %d LV reuses applied (%d dropped)\n",
			report.DeadApplied, report.DeadDropped, report.LVApplied, report.LVDropped)
		fmt.Printf("  drvp speedup before re-allocation: %.3f (coverage %.1f%%)\n",
			float64(base.Cycles)/float64(before.Cycles), 100*before.Coverage())
		fmt.Printf("  drvp speedup after  re-allocation: %.3f (coverage %.1f%%)\n\n",
			float64(base.Cycles)/float64(after.Cycles), 100*after.Coverage())
	}
}
