// Command perfbench is the reproduction's benchmark. It runs one
// workload (repro, ffsweep or bigcode) for a fixed number of seconds,
// checks every simulated result against recorded digests, and prints
// each metric by name with its unit, ending with one JSON line:
//
//	perfbench --workload repro --seed 1 --seconds 30 --trace 0
//	perfbench --workload bigcode --seed 7 --seconds 30 --trace 1 --out runs.jsonl
//	perfbench compare --base base.jsonl --change change.jsonl
//	perfbench reference > perfbench/reference.json
//
// --trace 0 reports the end-to-end metrics; --trace 1 is the separate
// traced run that reports the per-layer ledger. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"rvpsim/internal/obs"
)

// metricDef names a metric and its unit; the lists below are the order
// the report prints them in and must match BENCHMARK.json.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"sim_ips", "inst/s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"emu.ns_per_inst", "ns"}, {"emu.insts", "count"},
	{"mem.ns_per_access", "ns"}, {"mem.accesses", "count"},
	{"mem.l1i_miss_ratio", "ratio"}, {"mem.l1d_miss_ratio", "ratio"}, {"mem.l2_miss_ratio", "ratio"},
	{"bpred.ns_per_branch", "ns"}, {"bpred.branches", "count"},
	{"bpred.cond_mispredict_ratio", "ratio"}, {"bpred.target_miss_ratio", "ratio"},
	{"core.ns_per_update", "ns"},
	{"core.ns_per_update.drvp", "ns"}, {"core.ns_per_update.lvp", "ns"}, {"core.ns_per_update.gabbay", "ns"},
	{"core.ns_per_update.stride", "ns"}, {"core.ns_per_update.context", "ns"},
	{"core.updates", "count"}, {"core.coverage", "ratio"}, {"core.accuracy", "ratio"},
	{"pipeline.ns_per_inst", "ns"}, {"pipeline.self_ns_per_inst", "ns"},
	{"pipeline.port_starved_ratio", "ratio"}, {"pipeline.cells", "count"},
	{"pipeline.warmup_s", "s"}, {"pipeline.warmup_share", "ratio"},
	{"pipeline.fork_us", "us"}, {"pipeline.forks", "count"},
	{"profile.s", "s"}, {"profile.ns_per_inst", "ns"}, {"regalloc.s", "s"},
	{"exp.busy_ratio", "ratio"}, {"exp.cell_ms_p50", "ms"}, {"exp.cell_ms_p90", "ms"},
	{"exp.cell_samples", "count"}, {"exp.unaccounted_ratio", "ratio"},
	{"asm.assemble_s", "s"},
	{"trace.overhead_ratio", "ratio"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// result is the final line of a run.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// pass is one timed execution of a workload's measured phase.
type pass struct {
	start     time.Time
	wall      time.Duration
	committed uint64 // simulated instructions committed in measured cells
	cells     int64  // measured cells completed
	forks     int64  // cells started from a forked warm state
	attempted int64
	failed    int64
	problems  []string
	spans     []obs.Span // traced passes only
}

// bench is one workload.
type bench interface {
	// setup builds the inputs of one pass and returns the function that
	// times the pass over them. The inputs live only as long as that
	// function, so the next pass is set up on a heap without them.
	setup(tr *obs.Tracer) (func() pass, error)
	// finish runs the checks that are too slow to repeat every pass.
	finish() (failed int64, problems []string)
	// layers adds the traced run's per-layer metrics.
	layers(m metricSet, traced []pass) error
}

// timedPass collects garbage, so that every pass starts from the same
// heap, then sets up and runs one pass. It returns the set-up time too.
func timedPass(b bench, tr *obs.Tracer) (pass, time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	run, err := b.setup(tr)
	d := time.Since(t0)
	if err != nil {
		return pass{}, 0, err
	}
	return run(), d, nil
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "reference":
			os.Exit(referenceMain())
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wl := fl.String("workload", "", "workload: repro, ffsweep or bigcode")
	seed := fl.Uint64("seed", 1, "input seed (generates bigcode's programs)")
	seconds := fl.Int("seconds", 20, "how long the measured passes run")
	trace := fl.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	out := fl.String("out", "", "append this run's record (fingerprint, metrics) to a JSON-lines file")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	ref, err := loadReference()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	var b bench
	switch *wl {
	case "repro":
		b = &sweepBench{spec: reproSpec, ref: ref.Sweeps[reproSpec.name]}
	case "ffsweep":
		b = &sweepBench{spec: ffsweepSpec, ref: ref.Sweeps[ffsweepSpec.name]}
	case "bigcode":
		b = &bigcodeBench{seed: *seed, ref: ref.Bigcode}
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (repro, ffsweep, bigcode)\n", *wl)
		return 2
	}
	fp := hostFingerprint(".")
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d\nhost: %s\n", *wl, *seed, *seconds, *trace, fp)

	budget := time.Duration(*seconds) * time.Second
	var res result
	var problems []string
	if *trace == 1 {
		res, problems, err = tracedRun(b, budget)
	} else {
		res, problems, err = untracedRun(b, budget)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	f, p := b.finish()
	res.Failed += f
	problems = append(problems, p...)
	res.Correct = res.Failed == 0
	for _, p := range problems {
		fmt.Println("check:", p)
	}
	fmt.Printf("check: %d cells attempted, %d failed\n", res.Attempted, res.Failed)
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Printf("  %-30s %16.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	if *out != "" {
		rec := record{Fingerprint: fp, Workload: *wl, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Result: res, Problems: problems}
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// minPasses is the fewest timed passes a run makes, however long they
// take.
const minPasses = 3

// untracedRun sets up and times passes until the budget is spent and
// reports the end-to-end metrics: medians over the passes, and the peak
// resident memory of the whole process.
func untracedRun(b bench, budget time.Duration) (result, []string, error) {
	res := result{Metrics: metricSet{}}
	var setups, walls, ips []float64
	var problems []string
	start := time.Now()
	for len(walls) < minPasses || time.Since(start)+time.Duration(median(walls)*1e9) < budget {
		p, d, err := timedPass(b, nil)
		if err != nil {
			return res, nil, err
		}
		setups = append(setups, d.Seconds())
		walls = append(walls, p.wall.Seconds())
		ips = append(ips, float64(p.committed)/p.wall.Seconds())
		res.Attempted += p.attempted
		res.Failed += p.failed
		problems = append(problems, p.problems...)
	}
	res.Metrics.set("setup_s", median(setups), "s")
	res.Metrics.set("wall_s", median(walls), "s")
	res.Metrics.set("sim_ips", median(ips), "inst/s")
	res.Metrics.set("peak_rss_mb", peakRSSMB(), "MB")
	fmt.Printf("passes: %d\n", len(walls))
	return res, problems, nil
}

// minPairs is the fewest untraced/traced pairs a traced run makes. It is
// even, and so is every pair count, so each side runs first equally often.
const minPairs = 4

// tracedRun times pairs of one untraced and one traced pass for the
// budget, then replays the ledger. Every per-layer metric is reported;
// one that does not apply to the workload reads 0. The tracing overhead
// is the median over the pairs of traced wall ÷ untraced wall. A first
// pass is thrown away, so that the process's coldest pass (heap growth,
// first page faults) lands on neither side, and which side of a pair
// runs first alternates.
func tracedRun(b bench, budget time.Duration) (result, []string, error) {
	res := result{Metrics: metricSet{}}
	for _, d := range perLayer {
		res.Metrics.set(d.name, 0, d.unit)
	}
	var ratios []float64
	var traced []pass
	var problems []string
	count := func(p pass) {
		res.Attempted += p.attempted
		res.Failed += p.failed
		problems = append(problems, p.problems...)
	}
	p, _, err := timedPass(b, nil)
	if err != nil {
		return res, nil, err
	}
	count(p)
	start := time.Now()
	for pair := 0; pair < minPairs || pair%2 == 1 || time.Since(start) < budget; pair++ {
		var wall [2]time.Duration // untraced, traced
		for _, on := range []bool{pair%2 == 1, pair%2 == 0} {
			var tr *obs.Tracer
			if on {
				tr = obs.NewTracer("perfbench", 1<<16)
			}
			p, _, err := timedPass(b, tr)
			if err != nil {
				return res, nil, err
			}
			count(p)
			if on {
				p.spans = tr.Spans()
				traced = append(traced, p)
				wall[1] = p.wall
			} else {
				wall[0] = p.wall
			}
		}
		ratios = append(ratios, wall[1].Seconds()/wall[0].Seconds())
	}
	res.Metrics.set("trace.overhead_ratio", median(ratios), "ratio")
	if err := b.layers(res.Metrics, traced); err != nil {
		return res, nil, err
	}
	fmt.Printf("passes: 1 discarded, %d pairs\n", len(ratios))
	return res, problems, nil
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// referenceSeeds are the bigcode seeds whose digests are recorded.
var referenceSeeds = []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}

// referenceMain runs every workload once and prints the digests the
// output check compares with, as reference.json.
func referenceMain() int {
	ref := reference{Sweeps: map[string]sweepRef{}}
	for _, spec := range []sweepSpec{reproSpec, ffsweepSpec} {
		rig, err := spec.setup(nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		res := spec.run(rig, nil)
		sr := sweepRef{Params: spec.params(), Jobs: map[string]string{}, Counters: simCounters(res.counters)}
		for _, j := range res.jobs {
			if j.errs > 0 {
				fmt.Fprintf(os.Stderr, "perfbench: %s %s failed: %s\n", spec.name, j.key, j.errMsg)
				return 1
			}
			sr.Jobs[j.key] = digest(j.text)
		}
		ref.Sweeps[spec.name] = sr
	}
	ref.Bigcode = bigcodeRef{Params: bigcodeParams(), Seeds: map[string][]string{}}
	for _, seed := range referenceSeeds {
		b := &bigcodeBench{seed: seed, ref: bigcodeRef{Params: bigcodeParams()}}
		p, _, err := timedPass(b, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		f, problems := b.finish()
		if p.failed+f > 0 {
			fmt.Fprintln(os.Stderr, "perfbench:", append(p.problems, problems...))
			return 1
		}
		digests := b.first
		ref.Bigcode.Seeds[strconv.FormatUint(seed, 10)] = digests
	}
	out, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// compareMain gates a change's untraced records against a base's, per
// workload and end-to-end metric, with the bounds from the BENCHMARK.json
// of the directory it runs in (the repository root). It exits 1 when any
// gated metric is a regression, unresolved or not comparable.
func compareMain(args []string) int {
	fl := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	basePath := fl.String("base", "", "records of the parent (JSON lines from --out)")
	changePath := fl.String("change", "", "records of the change")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	bf, err := loadBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	}
	base, err := readRecords(*basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	}
	change, err := readRecords(*changePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	}
	code := 0
	for _, v := range compareRecords(base, change, bf.EndToEnd) {
		fmt.Printf("%-8s %-12s base %-12.6g change %-12.6g worse %+7.2f%% (base spread %.2f%%)  %s %s\n",
			v.Workload, v.Metric, v.Base, v.Change, 100*v.Worse, 100*v.Spread, v.Status, v.Note)
		switch v.Status {
		case "regression", "unresolved", "not comparable":
			code = 1
		}
	}
	return code
}
