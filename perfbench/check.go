package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"rvpsim/internal/lockstep"
	"rvpsim/internal/pipeline"
	"rvpsim/internal/program"
)

// The output check. Simulated results are deterministic, so they are not
// metrics: every rendered table and the sweep's simulator counter totals
// (repro, ffsweep), and every cell's pipeline.Stats (bigcode), are
// compared with what reference.json recorded. Regenerate that file with
// `perfbench reference` after a change that is meant to move results.

//go:embed reference.json
var referenceJSON []byte

// reference holds the recorded digests, keyed by workload.
type reference struct {
	Sweeps  map[string]sweepRef `json:"sweeps"`
	Bigcode bigcodeRef          `json:"bigcode"`
}

// sweepRef is one sweep workload's per-job table digests and the totals
// of the simulator's registry counters over the whole sweep.
type sweepRef struct {
	Params   string            `json:"params"`
	Jobs     map[string]string `json:"jobs"`
	Counters map[string]int64  `json:"counters"`
}

// simCounterPrefix marks the counters pipeline runs publish (committed
// instructions, cycles, branches, predictions, stalls...). Their sweep
// totals are deterministic, unlike the orchestration counters (exp_*),
// which a change to how cells are scheduled may rightly move.
const simCounterPrefix = "rvpsim_"

// simCounters keeps the simulator's counters of a registry snapshot.
func simCounters(all map[string]int64) map[string]int64 {
	out := map[string]int64{}
	for n, v := range all {
		if strings.HasPrefix(n, simCounterPrefix) {
			out[n] = v
		}
	}
	return out
}

// bigcodeRef is the per-cell Stats digests of the recorded seeds.
type bigcodeRef struct {
	Params string              `json:"params"`
	Seeds  map[string][]string `json:"seeds"`
}

func loadReference() (reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return ref, fmt.Errorf("reference.json: %w", err)
	}
	return ref, nil
}

func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:12])
}

// rawStats is pipeline.Stats without its String method, so that %+v
// prints every field by name rather than the summary.
type rawStats pipeline.Stats

// statsDigest hashes every field of a cell's Stats.
func statsDigest(st pipeline.Stats) string { return digest(fmt.Sprintf("%+v", rawStats(st))) }

// checkSweep counts the failed cells of one timed sweep: every job
// error and ERR table cell, and, for each job whose table digest differs
// from the reference, all of that job's cells (at least one). A
// simulator counter total that differs from the reference cannot be
// pinned on a job, so it fails every cell of the sweep.
func checkSweep(ref sweepRef, spec sweepSpec, res sweepResult) (failed int64, problems []string) {
	if ref.Params != spec.params() {
		return res.cells(), []string{fmt.Sprintf("reference recorded for %q, workload runs %q", ref.Params, spec.params())}
	}
	for _, j := range res.jobs {
		bad := int64(j.errs)
		if j.errMsg != "" {
			problems = append(problems, j.key+": "+j.errMsg)
		}
		if got, want := digest(j.text), ref.Jobs[j.key]; got != want {
			bad = max(bad, j.cells, 1)
			problems = append(problems, fmt.Sprintf("%s: table digest %s, reference %s", j.key, got, want))
		}
		failed += bad
	}
	names := make([]string, 0, len(ref.Counters))
	for n := range ref.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if got, want := res.counters[n], ref.Counters[n]; got != want {
			failed = max(failed, res.cells(), 1)
			problems = append(problems, fmt.Sprintf("counter %s = %d, reference %d", n, got, want))
		}
	}
	if len(ref.Counters) == 0 {
		failed = max(failed, res.cells(), 1)
		problems = append(problems, "reference records no counter totals")
	}
	return failed, problems
}

// checkBigcode compares one timed bigcode pass's per-cell digests with
// the reference for the seed. known is false when no reference was
// recorded for the seed; the caller then relies on lockstep and on the
// digests repeating across passes.
func checkBigcode(ref bigcodeRef, seed uint64, digests []string) (failed int64, known bool, problems []string) {
	if ref.Params != bigcodeParams() {
		return int64(len(digests)), true, []string{fmt.Sprintf("reference recorded for %q, workload runs %q", ref.Params, bigcodeParams())}
	}
	want, known := ref.Seeds[strconv.FormatUint(seed, 10)]
	if !known {
		return 0, false, nil
	}
	for i, d := range digests {
		if i >= len(want) || d != want[i] {
			failed++
			problems = append(problems, fmt.Sprintf("bigcode cell %d: stats digest %s, reference %s", i, d, at(want, i)))
		}
	}
	return failed, true, problems
}

func at(s []string, i int) string {
	if i < len(s) {
		return s[i]
	}
	return "<none>"
}

// lockstepCheck confirms, for a seed with no recorded reference, that
// each bigcode cell's pipeline commits the reference emulator's stream
// over the cell's whole budget.
func lockstepCheck(progs []*program.Program) (failed int64, problems []string) {
	for i, p := range progs {
		_, err := lockstep.Run(p, pipeline.BaselineConfig(), bigcodePredictors[i].make,
			lockstep.Options{MaxInsts: bigcodeInsts, CheckEvery: bigcodeInsts / 4})
		if err != nil {
			failed++
			problems = append(problems, fmt.Sprintf("bigcode cell %d: lockstep: %v", i, err))
		}
	}
	return failed, problems
}
