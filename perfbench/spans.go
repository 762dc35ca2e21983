package main

import (
	"sort"
	"strings"
	"time"

	"rvpsim/internal/obs"
)

// spanStats is what one traced sweep's spans say about where the
// workers' time went. exp.Runner emits a "sim:<workload>/<predictor>"
// span per cell, a "profile:<workload>" span per profiling pass and a
// "warmup:<workload>" span per functional fast-forward; the warmup span
// runs inside the first cell of its workload, and is matched to that
// cell by workload name and time.
type spanStats struct {
	cellMs      []float64 // per-cell time, the nested warmup excluded
	busy        float64   // seconds inside cell and profile spans
	profileS    float64
	profiles    int
	warmupS     float64
	unaccounted float64 // share of workers x wall no span covers
}

func analyzeSpans(spans []obs.Span, start time.Time, wall time.Duration, workers int) spanStats {
	var s spanStats
	type iv struct{ from, to int64 }
	var work []iv // cell and profile spans: the worker-level activities
	warm := map[string][]iv{}
	var cells []obs.Span
	for _, sp := range spans {
		v := iv{sp.StartUS, sp.StartUS + sp.DurUS}
		switch kind, rest, _ := strings.Cut(sp.Name, ":"); kind {
		case "sim":
			work = append(work, v)
			cells = append(cells, sp)
			s.busy += us(sp.DurUS)
		case "profile":
			work = append(work, v)
			s.busy += us(sp.DurUS)
			s.profileS += us(sp.DurUS)
			s.profiles++
		case "warmup":
			warm[rest] = append(warm[rest], v)
			s.warmupS += us(sp.DurUS)
		}
	}
	for _, c := range cells {
		d := c.DurUS
		wl, _, _ := strings.Cut(strings.TrimPrefix(c.Name, "sim:"), "/")
		for _, w := range warm[wl] {
			if w.from >= c.StartUS && w.to <= c.StartUS+c.DurUS {
				d -= w.to - w.from
			}
		}
		s.cellMs = append(s.cellMs, float64(d)/1e3)
	}

	// Sweep the cell and profile intervals, crediting at most `workers`
	// concurrent activities, over the sweep's own [start, start+wall].
	lo, hi := start.UnixMicro(), start.Add(wall).UnixMicro()
	type edge struct {
		t int64
		d int
	}
	var edges []edge
	for _, v := range work {
		from, to := max(v.from, lo), min(v.to, hi)
		if from < to {
			edges = append(edges, edge{from, +1}, edge{to, -1})
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].t != edges[j].t {
			return edges[i].t < edges[j].t
		}
		return edges[i].d < edges[j].d
	})
	var covered float64 // worker-seconds some span covers
	active, prev := 0, lo
	for _, e := range edges {
		covered += us(e.t-prev) * float64(min(active, workers))
		active += e.d
		prev = e.t
	}
	if capacity := float64(workers) * wall.Seconds(); capacity > 0 {
		s.unaccounted = 1 - covered/capacity
	}
	return s
}

func us(v int64) float64 { return float64(v) / 1e6 }

// quantile is the q-quantile of v by linear interpolation between order
// statistics.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
