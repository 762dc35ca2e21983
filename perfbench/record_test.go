package main

import (
	"testing"
	"time"

	"rvpsim/internal/obs"
)

func rec(fp fingerprint, wall float64) record {
	return record{Fingerprint: fp, Workload: "repro", Result: result{Correct: true, Metrics: metricSet{"wall_s": {wall, "s"}}}}
}

// TestCompareGatesOnlyLikeHosts: records from different hosts are never
// a regression or a gain, and records with failed cells are not
// compared. On one host a slowdown beyond the bound and the base's
// spread is a regression. When the base's spread is wider than the
// bound, a slowdown within it is unresolved (a regression if every
// change run is slower than every base run), and so is no change,
// unless every change run is faster than every base run.
func TestCompareGatesOnlyLikeHosts(t *testing.T) {
	a := fingerprint{CPU: "A", NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1", Commit: "x"}
	b := a
	b.CPU = "B"
	bounds := []bound{{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.1}}
	base := []record{rec(a, 1.0), rec(a, 1.01), rec(a, 0.99)}

	v := compareRecords(base, []record{rec(b, 2.0), rec(b, 2.0), rec(b, 2.0)}, bounds)
	if len(v) != 1 || v[0].Status != "not gated" {
		t.Fatalf("cross-host comparison: %+v", v)
	}
	c := a
	c.Commit = "y"
	if v := compareRecords(base, []record{rec(c, 1.3), rec(c, 1.3), rec(c, 1.31)}, bounds); v[0].Status != "regression" {
		t.Fatalf("30%% slower on the same host: %+v", v)
	}
	if v := compareRecords(base, []record{rec(c, 1.05), rec(c, 1.04), rec(c, 1.06)}, bounds); v[0].Status != "ok" {
		t.Fatalf("5%% slower, bound 10%%: %+v", v)
	}

	failed := rec(c, 1.0)
	failed.Result.Correct, failed.Result.Failed = false, 3
	if v := compareRecords(base, []record{failed, rec(c, 1.0), rec(c, 1.0)}, bounds); v[0].Status != "not comparable" {
		t.Fatalf("a change run with failed cells: %+v", v)
	}
	if v := compareRecords([]record{failed, rec(a, 1.0)}, []record{rec(c, 1.0)}, bounds); v[0].Status != "not comparable" {
		t.Fatalf("a base run with failed cells: %+v", v)
	}

	// Base spread ~0.5 of its median: a 20% slowdown is beyond the bound
	// but inside the spread.
	noisy := []record{rec(a, 0.6), rec(a, 0.8), rec(a, 1.0), rec(a, 1.2), rec(a, 1.4)}
	if v := compareRecords(noisy, []record{rec(c, 1.1), rec(c, 1.2), rec(c, 1.3)}, bounds); v[0].Status != "unresolved" {
		t.Fatalf("20%% slower within a 50%% spread: %+v", v)
	}
	if v := compareRecords(noisy, []record{rec(c, 1.5), rec(c, 1.5), rec(c, 1.6)}, bounds); v[0].Status != "regression" {
		t.Fatalf("every change run slower than every base run: %+v", v)
	}
	if v := compareRecords(noisy, []record{rec(c, 0.9), rec(c, 1.0), rec(c, 1.1)}, bounds); v[0].Status != "unresolved" {
		t.Fatalf("no change within a 50%% spread: %+v", v)
	}
	if v := compareRecords(noisy, []record{rec(c, 0.5), rec(c, 0.55), rec(c, 0.58)}, bounds); v[0].Status != "ok" {
		t.Fatalf("every change run faster than every base run: %+v", v)
	}
}

// TestBenchmarkFileMatchesMetrics: BENCHMARK.json names exactly the
// metrics, with the units, that the runs print.
func TestBenchmarkFileMatchesMetrics(t *testing.T) {
	bf, err := loadBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d/%d metrics, perfbench prints %d/%d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		if bf.EndToEnd[i].Name != d.name || bf.EndToEnd[i].Unit != d.unit {
			t.Errorf("end_to_end[%d] = %s %s, want %s %s", i, bf.EndToEnd[i].Name, bf.EndToEnd[i].Unit, d.name, d.unit)
		}
	}
	for i, d := range perLayer {
		if bf.PerLayer[i].Name != d.name || bf.PerLayer[i].Unit != d.unit {
			t.Errorf("per_layer[%d] = %s %s, want %s %s", i, bf.PerLayer[i].Name, bf.PerLayer[i].Unit, d.name, d.unit)
		}
	}
}

// TestUnaccountedRatio: with two workers over 10 s, spans covering 4 s
// and 6 s on one worker and 5 s on the other leave 25% unaccounted; a
// warmup nested in a cell counts once and is taken out of that cell's
// time only, even when another workload's cell also spans it.
func TestUnaccountedRatio(t *testing.T) {
	start := time.Unix(100, 0)
	at := func(sec float64) int64 { return start.UnixMicro() + int64(sec*1e6) }
	spans := []obs.Span{
		{Name: "sim:li/lvp", StartUS: at(0), DurUS: 4e6},
		{Name: "warmup:li", StartUS: at(0), DurUS: 1e6},
		{Name: "profile:go", StartUS: at(4), DurUS: 6e6},
		{Name: "sim:go/lvp", StartUS: at(2), DurUS: 5e6},
		{Name: "warmup:go", StartUS: at(2.5), DurUS: 1e6},
	}
	s := analyzeSpans(spans, start, 10*time.Second, 2)
	if d := s.unaccounted - 0.25; d > 1e-9 || d < -1e-9 {
		t.Fatalf("unaccounted = %v, want 0.25", s.unaccounted)
	}
	if s.busy != 15 || s.warmupS != 2 || s.profiles != 1 {
		t.Fatalf("busy=%v warmup=%v profiles=%d", s.busy, s.warmupS, s.profiles)
	}
	if s.cellMs[0] != 3000 || s.cellMs[1] != 4000 {
		t.Fatalf("cell times %v, want [3000 4000]", s.cellMs)
	}
}
