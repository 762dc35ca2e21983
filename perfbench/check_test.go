package main

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"rvpsim/internal/pipeline"
)

// TestPerturbedStatsTripCheck: changing any single Stats counter by one
// changes the cell's digest, and the check counts that cell as failed.
func TestPerturbedStatsTripCheck(t *testing.T) {
	base := pipeline.Stats{Cycles: 1000, Committed: 800, Loads: 100, Predicted: 50}
	ref := bigcodeRef{Params: bigcodeParams(), Seeds: map[string][]string{"9": {statsDigest(base)}}}
	if failed, known, _ := checkBigcode(ref, 9, []string{statsDigest(base)}); failed != 0 || !known {
		t.Fatalf("unperturbed stats: failed=%d known=%v", failed, known)
	}
	v := reflect.ValueOf(&base).Elem()
	for i := 0; i < v.NumField(); i++ {
		st := base
		f := reflect.ValueOf(&st).Elem().Field(i)
		switch f.Kind() {
		case reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Uint64:
			f.SetUint(f.Uint() + 1)
		default:
			t.Fatalf("field %s has unhandled kind %s", v.Type().Field(i).Name, f.Kind())
		}
		failed, _, problems := checkBigcode(ref, 9, []string{statsDigest(st)})
		if failed != 1 || len(problems) != 1 {
			t.Errorf("perturbing %s: failed=%d problems=%v", v.Type().Field(i).Name, failed, problems)
		}
	}
}

// TestPerturbedTableTripsCheck: a table that differs by one character
// fails all of its job's cells.
func TestPerturbedTableTripsCheck(t *testing.T) {
	spec := sweepSpec{name: "t", insts: 1, jobs: []string{"fig5"}}
	counters := map[string]int64{"rvpsim_committed_total": 900}
	res := sweepResult{jobs: []jobResult{{key: "fig5", text: "speedup 1.000\n", cells: 45}}, counters: counters}
	ref := sweepRef{Params: spec.params(), Jobs: map[string]string{"fig5": digest("speedup 1.000\n")}, Counters: counters}
	if failed, _ := checkSweep(ref, spec, res); failed != 0 {
		t.Fatalf("matching table: %d failed", failed)
	}
	res.jobs[0].text = "speedup 1.001\n"
	if failed, _ := checkSweep(ref, spec, res); failed != 45 {
		t.Fatalf("perturbed table: %d failed, want 45", failed)
	}
}

// TestPerturbedCounterTripsCheck: a simulator counter total off by one
// fails every cell of the sweep, even when every table still matches;
// a counter the reference does not name (orchestration, or one added
// later) is not checked.
func TestPerturbedCounterTripsCheck(t *testing.T) {
	spec := sweepSpec{name: "t", insts: 1, jobs: []string{"fig5", "fig6"}}
	want := map[string]int64{"rvpsim_committed_total": 900, "rvpsim_cycles_total": 1500}
	ref := sweepRef{Params: spec.params(), Jobs: map[string]string{"fig5": digest("a"), "fig6": digest("b")}, Counters: want}
	res := sweepResult{jobs: []jobResult{{key: "fig5", text: "a", cells: 45}, {key: "fig6", text: "b", cells: 54}}}
	res.counters = map[string]int64{"rvpsim_committed_total": 900, "rvpsim_cycles_total": 1500, "exp_warmup_forks": 99}
	if failed, problems := checkSweep(ref, spec, res); failed != 0 {
		t.Fatalf("matching counters: %d failed: %v", failed, problems)
	}
	for name := range want {
		res.counters = map[string]int64{}
		for n, v := range want {
			res.counters[n] = v
		}
		res.counters[name]++
		if failed, problems := checkSweep(ref, spec, res); failed != 99 || len(problems) != 1 {
			t.Errorf("%s off by one: %d failed, want 99: %v", name, failed, problems)
		}
	}
	if failed, _ := checkSweep(sweepRef{Params: ref.Params, Jobs: ref.Jobs}, spec, res); failed != 99 {
		t.Errorf("a reference without counter totals: %d failed, want 99", failed)
	}
}

// TestRecordedCountersAreSimulatorCounters: the reference names the
// simulator's counters only, and they include the committed count that
// sim_ips is computed from.
func TestRecordedCountersAreSimulatorCounters(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	for name, sr := range ref.Sweeps {
		if sr.Counters["rvpsim_committed_total"] <= 0 {
			t.Errorf("%s: no committed total in %v", name, sr.Counters)
		}
		for n := range sr.Counters {
			if !strings.HasPrefix(n, simCounterPrefix) {
				t.Errorf("%s: reference checks orchestration counter %s", name, n)
			}
		}
	}
}

// TestTinySweepDeterministic: two tiny-budget sweeps of every job give
// equal table digests and equal simulator counter totals.
func TestTinySweepDeterministic(t *testing.T) {
	spec := reproSpec
	spec.insts = 2000
	var got [2]map[string]string
	for i := range got {
		rig, err := spec.setup(nil)
		if err != nil {
			t.Fatal(err)
		}
		res := spec.run(rig, nil)
		got[i] = map[string]string{"counters": fmt.Sprint(simCounters(res.counters))}
		for _, j := range res.jobs {
			if j.errs > 0 {
				t.Fatalf("%s: %s", j.key, j.errMsg)
			}
			got[i][j.key] = digest(j.text)
		}
	}
	if !reflect.DeepEqual(got[0], got[1]) {
		t.Fatalf("digests differ between runs:\n%v\n%v", got[0], got[1])
	}
}

// TestReferenceMatches: at this commit every workload reproduces the
// recorded digests, and an unrecorded bigcode seed passes lockstep.
func TestReferenceMatches(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload once")
	}
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []sweepSpec{reproSpec, ffsweepSpec} {
		p, _, err := timedPass(&sweepBench{spec: spec, ref: ref.Sweeps[spec.name]}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if p.failed != 0 || p.cells == 0 {
			t.Errorf("%s: %d of %d failed: %v", spec.name, p.failed, p.attempted, p.problems)
		}
	}
	for _, seed := range []uint64{1, 1_000_003} {
		b := &bigcodeBench{seed: seed, ref: ref.Bigcode}
		for i := 0; i < 2; i++ {
			p, _, err := timedPass(b, nil)
			if err != nil {
				t.Fatal(err)
			}
			if p.failed != 0 || p.cells != int64(len(bigcodePredictors)) {
				t.Errorf("bigcode seed %d pass %d: %d of %d failed: %v", seed, i, p.failed, p.attempted, p.problems)
			}
		}
		if failed, problems := b.finish(); failed != 0 {
			t.Errorf("bigcode seed %d: %v", seed, problems)
		}
	}
}
