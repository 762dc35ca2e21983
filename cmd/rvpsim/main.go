// Command rvpsim runs one workload (or an assembly file) on the simulated
// machine under a chosen value predictor and prints the run statistics.
//
// Usage:
//
//	rvpsim [-w workload | -f prog.s] [-p predictor] [-n insts]
//	       [-recovery refetch|reissue|selective] [-wide] [-support level]
//	       [-trace out.json] [-events out.jsonl] [-metrics out.prom] [-json]
//	       [-timeout 30s] [-watchdog cycles] [-lockstep [-check-every n]]
//
// Predictors: none, drvp, drvp_loads, lvp, lvp_loads, grp, and the
// hint-assisted drvp variants drvp_dead, drvp_dead_lv (which profile the
// program first). -wide selects the 16-issue machine.
//
// -lockstep replaces the normal run with a differential validation run:
// the timing pipeline and the architectural reference emulator execute
// the program side by side, every committed instruction's (PC, dest
// register, value) is compared, and the full register/memory state is
// compared every -check-every commits. Any divergence exits nonzero with
// the first divergent commit identified.
//
// Observability: -trace writes a Chrome trace_event file (load it in
// chrome://tracing or https://ui.perfetto.dev), -events a JSONL event
// stream, -metrics a Prometheus text exposition snapshot, and -json
// replaces the human summary with the full Stats as one JSON object.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"rvpsim"
)

func main() {
	wl := flag.String("w", "li", "workload name (see -list)")
	file := flag.String("f", "", "assembly file to run instead of a workload")
	predName := flag.String("p", "drvp", "predictor: none|drvp|drvp_loads|drvp_dead|drvp_dead_lv|lvp|lvp_loads|grp")
	n := flag.Uint64("n", 2_000_000, "committed-instruction budget (0 = to HALT)")
	recovery := flag.String("recovery", "selective", "value-mispredict recovery: refetch|reissue|selective")
	wide := flag.Bool("wide", false, "use the 16-issue machine")
	list := flag.Bool("list", false, "list workloads and exit")
	top := flag.Int("top", 0, "report the N most-predicted static instructions")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON file (chrome://tracing, Perfetto)")
	eventsOut := flag.String("events", "", "write a JSONL structured event stream")
	metricsOut := flag.String("metrics", "", "write a Prometheus text exposition metrics snapshot")
	jsonOut := flag.Bool("json", false, "emit the full run Stats as one JSON object instead of the text summary")
	timeout := flag.Duration("timeout", 0, "wall-clock bound for the run, e.g. 30s (0 = none)")
	watchdog := flag.Int("watchdog", 0, "abort if no instruction commits for N simulated cycles (0 = off)")
	lock := flag.Bool("lockstep", false, "differentially validate the pipeline against the reference emulator instead of a normal run")
	checkEvery := flag.Uint64("check-every", 10_000, "lockstep: compare full register/memory state every N commits")
	flag.Parse()

	if *list {
		for _, name := range rvpsim.Workloads() {
			fmt.Println(name)
		}
		return
	}

	prog, err := loadProgram(*wl, *file)
	if err != nil {
		fatal(err)
	}

	cfg := rvpsim.BaselineConfig()
	if *wide {
		cfg = rvpsim.AggressiveConfig()
	}
	cfg.WatchdogCycles = *watchdog
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	switch *recovery {
	case "refetch":
		cfg.Recovery = rvpsim.RecoverRefetch
	case "reissue":
		cfg.Recovery = rvpsim.RecoverReissue
	case "selective":
		cfg.Recovery = rvpsim.RecoverSelective
	default:
		fatal(fmt.Errorf("unknown recovery %q", *recovery))
	}

	if *lock {
		res, lerr := rvpsim.Validate(prog, cfg, func() rvpsim.Predictor {
			p, perr := makePredictor(*predName, prog, *n)
			if perr != nil {
				fatal(perr)
			}
			return p
		}, rvpsim.LockstepOptions{MaxInsts: *n, CheckEvery: *checkEvery})
		if lerr != nil {
			fatal(lerr)
		}
		fmt.Printf("lockstep OK: %s under %s/%s: %d commits compared, %d state checks, zero divergences\n",
			prog.Name(), *predName, *recovery, res.Committed, res.StateChecks)
		return
	}

	pred, err := makePredictor(*predName, prog, *n)
	if err != nil {
		fatal(err)
	}

	perInst := map[int]*instAgg{}
	record := func(e *rvpsim.Event) {
		a := perInst[e.Index]
		if a == nil {
			a = &instAgg{}
			perInst[e.Index] = a
		}
		a.execs++
		a.lat += e.Done - e.Dispatch
		if e.Predicted {
			a.predicted++
			if e.Correct {
				a.correct++
			}
		}
	}

	// One observer carries every output: a registry only when metrics
	// are written, sinks for the trace files and -top. With none of them
	// it is empty and the run is bare.
	observer := &rvpsim.Observer{}
	if *metricsOut != "" {
		observer = rvpsim.NewObserver()
	}
	var files []*os.File
	create := func(path string) *os.File {
		f, cerr := os.Create(path)
		if cerr != nil {
			fatal(cerr)
		}
		files = append(files, f)
		return f
	}
	if *traceOut != "" {
		ct := rvpsim.NewChromeTrace(create(*traceOut))
		// One lane per window slot keeps concurrently in-flight
		// instructions on separate trace rows.
		ct.Lanes = cfg.Window
		observer.AddSink(ct)
	}
	if *eventsOut != "" {
		observer.AddSink(rvpsim.NewJSONLTrace(create(*eventsOut)))
	}
	if *top > 0 {
		observer.AddSink(rvpsim.SinkFunc(record))
	}
	st, err := rvpsim.Run(ctx, prog, cfg, pred, rvpsim.RunOptions{MaxInsts: *n, Observer: observer})
	if cerr := observer.Close(); cerr != nil && err == nil {
		err = cerr
	}
	for _, f := range files {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err == nil && *metricsOut != "" {
		err = writeMetrics(*metricsOut, observer.Registry())
	}
	if err != nil {
		fatal(err)
	}
	if *jsonOut {
		b, jerr := json.MarshalIndent(st, "", "  ")
		if jerr != nil {
			fatal(jerr)
		}
		fmt.Println(string(b))
		return
	}
	fmt.Printf("program      %s (%d static instructions)\n", prog.Name(), prog.Len())
	fmt.Printf("predictor    %s, recovery %s\n", *predName, *recovery)
	fmt.Printf("committed    %d instructions in %d cycles (IPC %.3f)\n", st.Committed, st.Cycles, st.IPC())
	fmt.Printf("predictions  %d (%.1f%% of instructions), %.2f%% correct\n",
		st.Predicted, 100*st.Coverage(), 100*st.Accuracy())
	fmt.Printf("branches     %.2f%% conditional mispredict rate\n", 100*st.BranchMispredictRate())
	fmt.Printf("caches       L1D %.1f%% miss, L1I %.1f%% miss, L2 %.1f%% miss\n",
		missPct(st.DL1Hits, st.DL1Misses), missPct(st.IL1Hits, st.IL1Misses), missPct(st.L2Hits, st.L2Misses))
	fmt.Printf("stalls       window %d, intIQ %d, fpIQ %d (dispatch cycles)\n",
		st.StallWindow, st.StallIntIQ, st.StallFPIQ)

	if *top > 0 {
		fmt.Printf("\nmost-predicted static instructions:\n")
		fmt.Printf("%8s %-28s %10s %10s %8s %9s\n", "index", "instruction", "execs", "predicted", "acc%", "avg lat")
		for _, i := range mostPredicted(perInst, *top) {
			a := perInst[i]
			if a.predicted == 0 {
				break
			}
			fmt.Printf("%8d %-28s %10d %10d %7.1f%% %9.1f\n",
				i, prog.InstString(i), a.execs, a.predicted,
				100*float64(a.correct)/float64(a.predicted),
				float64(a.lat)/float64(a.execs))
		}
	}
}

// instAgg is one static instruction's row in the -top report.
type instAgg struct {
	execs, predicted, correct uint64
	lat                       int64
}

// mostPredicted returns the static indices of the n most-predicted
// instructions, most predictions first; equal counts keep static index
// order, so the report does not depend on map iteration order.
func mostPredicted(perInst map[int]*instAgg, n int) []int {
	idxs := make([]int, 0, len(perInst))
	for i := range perInst {
		idxs = append(idxs, i)
	}
	sort.Slice(idxs, func(a, b int) bool {
		pa, pb := perInst[idxs[a]].predicted, perInst[idxs[b]].predicted
		if pa != pb {
			return pa > pb
		}
		return idxs[a] < idxs[b]
	})
	if len(idxs) > n {
		idxs = idxs[:n]
	}
	return idxs
}

func loadProgram(wl, file string) (*rvpsim.Program, error) {
	if file != "" {
		src, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		return rvpsim.Assemble(file, string(src))
	}
	return rvpsim.Workload(wl)
}

func makePredictor(name string, prog *rvpsim.Program, budget uint64) (rvpsim.Predictor, error) {
	profileHints := func(level rvpsim.Support, loadsOnly bool) (rvpsim.ReuseHints, error) {
		pr, err := rvpsim.ProfileProgram(prog, budget/4)
		if err != nil {
			return nil, err
		}
		return pr.Hints(0.8, level, loadsOnly), nil
	}
	switch name {
	case "none":
		return rvpsim.NoPrediction(), nil
	case "drvp":
		return rvpsim.DynamicRVP(), nil
	case "drvp_loads":
		return rvpsim.DynamicRVPLoads(), nil
	case "drvp_dead":
		h, err := profileHints(rvpsim.SupportDead, false)
		if err != nil {
			return nil, err
		}
		return rvpsim.DynamicRVPWithHints(h, false), nil
	case "drvp_dead_lv":
		h, err := profileHints(rvpsim.SupportDeadLV, false)
		if err != nil {
			return nil, err
		}
		return rvpsim.DynamicRVPWithHints(h, false), nil
	case "lvp":
		return rvpsim.LastValue(false), nil
	case "lvp_loads":
		return rvpsim.LastValue(true), nil
	case "grp":
		return rvpsim.GabbayRegisterPredictor(), nil
	}
	return nil, fmt.Errorf("unknown predictor %q", name)
}

// writeMetrics dumps the registry as Prometheus text exposition.
func writeMetrics(path string, reg *rvpsim.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WritePrometheus(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func missPct(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return 100 * float64(misses) / float64(hits+misses)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rvpsim:", err)
	os.Exit(1)
}
