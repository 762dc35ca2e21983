package rvpsim_test

import (
	"context"
	"testing"

	"rvpsim"
)

// benchInsts is the committed-instruction budget of one benchmark run.
const benchInsts = 300_000

// BenchmarkObserverOverhead guards the observability layer's hot-path
// cost: run the same workload bare and with an observer attached (metrics
// registry live, no event sinks — the always-on production shape) and
// report both throughputs. The sub-benchmark deltas should stay within
// ~5%; compare with
//
//	go test -bench BenchmarkObserverOverhead -count 5
func BenchmarkObserverOverhead(b *testing.B) {
	prog, err := rvpsim.Workload("li")
	if err != nil {
		b.Fatal(err)
	}
	ctx, cfg := context.Background(), rvpsim.BaselineConfig()

	b.Run("baseline", func(b *testing.B) {
		var insts uint64
		for i := 0; i < b.N; i++ {
			st, err := rvpsim.Run(ctx, prog, cfg, rvpsim.DynamicRVP(), rvpsim.RunOptions{MaxInsts: benchInsts})
			if err != nil {
				b.Fatal(err)
			}
			insts += st.Committed
		}
		b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "sim_insts/s")
	})
	b.Run("observed", func(b *testing.B) {
		reg := rvpsim.NewObserver().Registry()
		var insts uint64
		for i := 0; i < b.N; i++ {
			opts := rvpsim.RunOptions{MaxInsts: benchInsts, Observer: rvpsim.NewObserverWith(reg)}
			st, err := rvpsim.Run(ctx, prog, cfg, rvpsim.DynamicRVP(), opts)
			if err != nil {
				b.Fatal(err)
			}
			insts += st.Committed
		}
		b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "sim_insts/s")
	})
}
