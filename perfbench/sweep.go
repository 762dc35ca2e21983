package main

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"rvpsim/internal/exp"
	"rvpsim/internal/obs"
	"rvpsim/internal/pipeline"
	"rvpsim/internal/profile"
	"rvpsim/internal/program"
	"rvpsim/internal/regalloc"
	"rvpsim/internal/stats"
	"rvpsim/internal/workloads"
)

// sweepWorkers is the exp.Runner worker count of the repro and ffsweep
// workloads.
const sweepWorkers = 2

// sweepSpec is one exp.Runner-driven workload: which jobs of the
// experiments binary it runs, at what per-cell budget, after how long a
// functional fast-forward.
type sweepSpec struct {
	name   string
	insts  uint64 // committed-instruction budget per cell
	warmup uint64 // exp.Options.WarmupInsts (0 = cold start)
	jobs   []string
}

// reproSpec is cmd/experiments' default run (every figure, Table 1,
// Table 2 and the ext tables) at a reduced per-cell budget.
var reproSpec = sweepSpec{
	name:  "repro",
	insts: 50_000,
	jobs:  []string{"fig1", "tab1", "fig3", "fig4", "fig5", "fig6", "tab2", "fig7", "fig8", "ext"},
}

// ffsweepSpec is Figures 5 and 6 behind a fast-forward 400 times longer
// than each measured cell, so warmup and forking dominate.
var ffsweepSpec = sweepSpec{
	name:   "ffsweep",
	insts:  20_000,
	warmup: 8_000_000,
	jobs:   []string{"fig5", "fig6"},
}

func (s sweepSpec) profileInsts() uint64 { return s.insts / 4 }

// params names every setting that shapes the sweep's output; the
// recorded reference digests are valid only for these.
func (s sweepSpec) params() string {
	return fmt.Sprintf("insts=%d profile=%d warmup=%d jobs=%s",
		s.insts, s.profileInsts(), s.warmup, strings.Join(s.jobs, ","))
}

// sweepJobs renders each job exactly as cmd/experiments prints it: every
// table through fmt.Println, then the blank line after the job's timing
// line. A job's text is therefore the experiments output with the
// "[... done in ...]" lines removed.
var sweepJobs = map[string]func(*exp.Runner) (string, []*stats.Table, error){
	"fig1": one((*exp.Runner).Figure1),
	"tab1": func(r *exp.Runner) (string, []*stats.Table, error) { return r.Table1() + "\n\n", nil, nil },
	"fig3": one((*exp.Runner).Figure3),
	"fig4": one((*exp.Runner).Figure4),
	"fig5": one((*exp.Runner).Figure5),
	"fig6": one((*exp.Runner).Figure6),
	"tab2": func(r *exp.Runner) (string, []*stats.Table, error) {
		cov, acc, err := r.Table2()
		return render(cov, acc), []*stats.Table{cov, acc}, err
	},
	"fig7": one((*exp.Runner).Figure7),
	"fig8": one((*exp.Runner).Figure8),
	"ext": func(r *exp.Runner) (string, []*stats.Table, error) {
		t, err := r.StorageTable()
		t2, err2 := r.ThresholdTable()
		return render(t, t2), []*stats.Table{t, t2}, errors.Join(err, err2)
	},
}

func one(f func(*exp.Runner) (*stats.Table, error)) func(*exp.Runner) (string, []*stats.Table, error) {
	return func(r *exp.Runner) (string, []*stats.Table, error) {
		t, err := f(r)
		return render(t), []*stats.Table{t}, err
	}
}

func render(tables ...*stats.Table) string {
	var b strings.Builder
	for _, t := range tables {
		if t != nil {
			b.WriteString(t.String())
			b.WriteByte('\n')
		}
	}
	b.WriteByte('\n')
	return b.String()
}

// sweepRig is one set-up sweep: a runner with its nine programs built,
// a counter of completed cells and the registry its runs publish into.
type sweepRig struct {
	runner *exp.Runner
	cells  *atomic.Int64
	reg    *obs.Registry
}

// setup constructs a fresh runner (profiles and warm states are
// memoised per runner, so every timed sweep needs its own) and builds
// the nine workload programs into it. Every pass attaches a registry:
// its counters are how the pass counts committed instructions and warm
// forks, and their totals are part of the output check.
func (s sweepSpec) setup(tr *obs.Tracer) (*sweepRig, error) {
	cells := new(atomic.Int64)
	reg := obs.NewRegistry()
	opts := exp.DefaultOptions()
	opts.Insts = s.insts
	opts.ProfileInsts = s.profileInsts()
	opts.WarmupInsts = s.warmup
	opts.Parallel = true
	opts.MaxWorkers = sweepWorkers
	opts.Tracer = tr
	opts.Registry = reg
	opts.OnRunDone = func(string) { cells.Add(1) }
	r := exp.NewRunner(opts)
	for _, n := range workloads.Names() {
		if _, err := r.Program(n); err != nil {
			return nil, err
		}
	}
	return &sweepRig{runner: r, cells: cells, reg: reg}, nil
}

// jobResult is one job's share of a timed sweep.
type jobResult struct {
	key    string
	text   string
	cells  int64 // simulation cells the job completed
	errs   int   // job error (0 or 1) plus ERR table cells
	errMsg string
}

// sweepResult is one timed sweep.
type sweepResult struct {
	start    time.Time
	wall     time.Duration
	jobs     []jobResult
	counters map[string]int64 // the registry's counters after the sweep
}

func (r sweepResult) cells() int64 {
	var n int64
	for _, j := range r.jobs {
		n += j.cells
	}
	return n
}

// run executes the sweep's jobs in order. With a tracer it also records
// one span per job around its exp.Runner call.
func (s sweepSpec) run(rig *sweepRig, tr *obs.Tracer) sweepResult {
	res := sweepResult{start: time.Now()}
	for _, key := range s.jobs {
		c0 := rig.cells.Load()
		t0 := time.Now()
		text, tables, err := sweepJobs[key](rig.runner)
		if tr != nil {
			tr.Record(obs.SpanContext{}, "job:"+key, t0, time.Since(t0), nil)
		}
		j := jobResult{key: key, text: text, cells: rig.cells.Load() - c0}
		if err != nil {
			j.errs, j.errMsg = 1, err.Error()
		}
		for _, t := range tables {
			if t != nil {
				j.errs += len(t.FailedCells())
			}
		}
		res.jobs = append(res.jobs, j)
	}
	res.wall = time.Since(res.start)
	res.counters = rig.reg.Snapshot().Counters
	return res
}

// sweepLedgerInsts is how many instructions of each kernel the ledger
// replays.
const sweepLedgerInsts = 200_000

// sweepBench runs a sweep workload: repro or ffsweep.
type sweepBench struct {
	spec sweepSpec
	ref  sweepRef
}

func (b *sweepBench) setup(tr *obs.Tracer) (func() pass, error) {
	rig, err := b.spec.setup(tr)
	if err != nil {
		return nil, err
	}
	return func() pass {
		res := b.spec.run(rig, tr)
		p := pass{start: res.start, wall: res.wall, cells: res.cells()}
		p.committed = uint64(res.counters["rvpsim_committed_total"])
		p.forks = res.counters["exp_warmup_forks"]
		for _, j := range res.jobs {
			p.attempted += max(j.cells, 1) + int64(j.errs)
		}
		p.failed, p.problems = checkSweep(b.ref, b.spec, res)
		return p
	}, nil
}

func (b *sweepBench) finish() (int64, []string) { return 0, nil }

func (b *sweepBench) layers(m metricSet, traced []pass) error {
	var cells, forks, busy, unacc, p50, p90, samples, profS, profNs, warmS, warmShare []float64
	for _, p := range traced {
		s := analyzeSpans(p.spans, p.start, p.wall, sweepWorkers)
		capacity := float64(sweepWorkers) * p.wall.Seconds()
		cells = append(cells, float64(p.cells))
		forks = append(forks, float64(p.forks))
		busy = append(busy, s.busy/capacity)
		unacc = append(unacc, s.unaccounted)
		p50 = append(p50, quantile(s.cellMs, 0.5))
		p90 = append(p90, quantile(s.cellMs, 0.9))
		samples = append(samples, float64(len(s.cellMs)))
		profS = append(profS, s.profileS)
		if s.profiles > 0 {
			profNs = append(profNs, s.profileS*1e9/float64(uint64(s.profiles)*b.spec.profileInsts()))
		}
		warmS = append(warmS, s.warmupS)
		warmShare = append(warmShare, s.warmupS/capacity)
	}
	m.set("pipeline.cells", median(cells), "count")
	m.set("exp.busy_ratio", median(busy), "ratio")
	m.set("exp.unaccounted_ratio", median(unacc), "ratio")
	m.set("exp.cell_ms_p50", median(p50), "ms")
	m.set("exp.cell_ms_p90", median(p90), "ms")
	m.set("exp.cell_samples", median(samples), "count")
	m.set("profile.s", median(profS), "s")
	m.set("profile.ns_per_inst", median(profNs), "ns")
	if b.spec.warmup > 0 {
		m.set("pipeline.warmup_s", median(warmS), "s")
		m.set("pipeline.warmup_share", median(warmShare), "ratio")
	}
	m.set("pipeline.forks", median(forks), "count")

	var inputs []ledgerInput
	for _, name := range workloads.Names() {
		prog, err := workloads.ByName(name)
		if err != nil {
			return err
		}
		in := ledgerInput{prog: prog, insts: sweepLedgerInsts}
		if b.spec.warmup > 0 {
			if in.warm, err = pipeline.Warmup(prog, b.spec.warmup); err != nil {
				return err
			}
		}
		inputs = append(inputs, in)
	}
	l, err := runLedger(inputs)
	if err != nil {
		return err
	}
	l.metrics(m)
	if b.spec.warmup > 0 {
		us, err := forkMicros(inputs)
		if err != nil {
			return err
		}
		m.set("pipeline.fork_us", us, "us")
	}
	if slices.Contains(b.spec.jobs, "fig7") {
		s, err := b.regallocSeconds()
		if err != nil {
			return err
		}
		m.set("regalloc.s", s, "s")
	}
	return nil
}

// forkMicros is the median host time of one WarmState.Fork, over 20
// forks of every kernel's warm state.
func forkMicros(inputs []ledgerInput) (float64, error) {
	var v []float64
	for _, in := range inputs {
		for i := 0; i < 20; i++ {
			t0 := time.Now()
			_, err := in.warm.Fork(in.prog)
			v = append(v, float64(time.Since(t0).Nanoseconds())/1e3)
			if err != nil {
				return 0, err
			}
		}
	}
	return median(v), nil
}

// regallocSeconds times regalloc.Reallocate over Figure 7's workloads,
// with the profile and lists the sweep gives it; the median of
// ledgerReps passes.
func (b *sweepBench) regallocSeconds() (float64, error) {
	type input struct {
		prog *program.Program
		prof *profile.Profile
	}
	var ins []input
	for _, name := range exp.Figure7Workloads {
		prog, err := workloads.ByName(name)
		if err != nil {
			return 0, err
		}
		pr, err := profile.Run(prog, profile.Options{MaxInsts: b.spec.profileInsts()})
		if err != nil {
			return 0, err
		}
		ins = append(ins, input{prog, pr})
	}
	var v []float64
	for rep := 0; rep < ledgerReps; rep++ {
		var total time.Duration
		for _, in := range ins {
			lists := in.prof.Lists(exp.DefaultOptions().Threshold, false, 0)
			t0 := time.Now()
			_, err := regalloc.Reallocate(in.prog, in.prof, lists)
			total += time.Since(t0)
			if err != nil {
				return 0, err
			}
		}
		v = append(v, total.Seconds())
	}
	return median(v), nil
}
