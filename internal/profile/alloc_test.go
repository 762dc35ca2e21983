package profile_test

import (
	"testing"

	"rvpsim/internal/profile"
	"rvpsim/internal/workloads"
)

// TestRunAllocsPerInst guards the profiler's passes against allocating
// per executed instruction: profiling 200k instructions may allocate no
// more than profiling 100k does, give or take a few pages and map
// entries first touched in between.
func TestRunAllocsPerInst(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; guard is meaningless under -race")
	}
	const short, long = 100_000, 200_000
	for _, name := range []string{"li", "mgrid"} {
		p, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		allocs := func(n uint64) float64 {
			return testing.AllocsPerRun(1, func() {
				if _, err := profile.Run(p, profile.Options{MaxInsts: n}); err != nil {
					t.Fatal(err)
				}
			})
		}
		perInst := (allocs(long) - allocs(short)) / (long - short)
		t.Logf("%s: %.6f allocs/inst", name, perInst)
		if perInst > 0.001 {
			t.Errorf("%s: profiling allocates %.4f times per instruction", name, perInst)
		}
	}
}
