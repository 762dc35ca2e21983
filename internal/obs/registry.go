// Package obs is the simulator's observability layer: a metrics registry
// (counters, gauges, fixed-bucket histograms), a structured event-trace
// sink chain, and exporters for three formats — Prometheus text
// exposition, Chrome trace_event JSON (chrome://tracing / Perfetto), and
// JSONL event streams — plus run manifests, a progress heartbeat, and
// pprof capture helpers for the experiment harness.
//
// Design for the hot path: instruments are updated with single atomic
// adds and allocate nothing after registration. Single-writer loops (the
// timing simulator commits ~10M instructions/s) should batch through the
// Local* views, which accumulate in plain ints and flush deltas into the
// shared instruments every few thousand observations; a flush is a
// handful of atomic adds, so the amortised hot-path cost is near zero
// while concurrent readers (heartbeats, exporters) still see live,
// race-free values.
//
// Concurrency contract: every instrument method and Registry lookup is
// safe for concurrent use. Counters and histograms are monotone; values
// accumulate across runs that share a Registry. Snapshots are internally
// consistent per instrument but are not a cross-instrument atomic cut.
package obs

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	name string
	help string
	v    atomic.Int64

	// Pad the struct to one 64-byte cache line. Counters are individually
	// heap-allocated and hit with atomic adds from every parallel
	// simulator's batched flush; at 40 bytes two hot counters can share a
	// line and false-share across cores. The padding costs nothing and
	// removes that coupling.
	_ [24]byte
}

// Name returns the metric name.
func (c *Counter) Name() string { return c.name }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	name string
	help string
	v    atomic.Int64

	// Cache-line padding, for the same false-sharing reason as Counter.
	_ [24]byte
}

// Name returns the metric name.
func (g *Gauge) Name() string { return g.name }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc raises the gauge by one (a resource came up).
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec lowers the gauge by one (a resource went away).
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// GaugeVec is a family of gauges distinguished by one label ("which
// workload's breaker", "which worker"). Member gauges register lazily on
// first With and render as `name{label="value"} v` lines in Prometheus
// exposition. Safe for concurrent use.
type GaugeVec struct {
	name  string
	help  string
	label string

	mu     sync.Mutex
	gauges map[string]*Gauge
}

// Name returns the family name.
func (v *GaugeVec) Name() string { return v.name }

// With returns (registering if needed) the member gauge for the label
// value.
func (v *GaugeVec) With(value string) *Gauge {
	v.mu.Lock()
	defer v.mu.Unlock()
	g, ok := v.gauges[value]
	if !ok {
		g = &Gauge{name: v.name, help: v.help}
		v.gauges[value] = g
	}
	return g
}

// Values returns a copy of the current per-label values.
func (v *GaugeVec) Values() map[string]int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make(map[string]int64, len(v.gauges))
	for label, g := range v.gauges {
		out[label] = g.Value()
	}
	return out
}

// Histogram is a fixed-bucket cumulative histogram. Bounds are inclusive
// upper bounds in ascending order; one extra overflow bucket (+Inf) is
// implicit. Buckets never change after registration, so observations are
// a bucket search plus two atomic adds.
type Histogram struct {
	name   string
	help   string
	bounds []int64
	pow2   bool           // bounds are 2,4,8,...: bucket via bit length
	counts []atomic.Int64 // len(bounds)+1; last is overflow
	sum    atomic.Int64
}

// Name returns the metric name.
func (h *Histogram) Name() string { return h.name }

// Bounds returns the bucket upper bounds (not to be mutated).
func (h *Histogram) Bounds() []int64 { return h.bounds }

// bucket returns the index of the bucket v falls into. The hot-path
// bounds (ExpBuckets(2, 2, n)) are consecutive powers of two, for which
// the index is the bit length of v-1; that case is branch-free and keeps
// this function inlinable into LocalHistogram.Observe.
func (h *Histogram) bucket(v int64) int {
	if h.pow2 {
		if v <= 2 {
			return 0
		}
		i := bits.Len64(uint64(v-1)) - 1
		if i > len(h.bounds) {
			i = len(h.bounds)
		}
		return i
	}
	return h.bucketScan(v)
}

// bucketScan is the general-bounds fallback.
func (h *Histogram) bucketScan(v int64) int {
	// Latencies cluster in the low buckets; a linear scan beats binary
	// search for the common case and is branch-predictor friendly.
	for i, b := range h.bounds {
		if v <= b {
			return i
		}
	}
	return len(h.bounds)
}

// isPow2Bounds reports whether b is exactly 2, 4, 8, ..., 2^len(b).
func isPow2Bounds(b []int64) bool {
	v := int64(2)
	for _, x := range b {
		if x != v {
			return false
		}
		v <<= 1
	}
	return len(b) > 0
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.counts[h.bucket(v)].Add(1)
	h.sum.Add(v)
}

// AddCounts merges pre-aggregated per-bucket counts (len(bounds)+1
// entries) and a value sum into the histogram. It is the bulk form used
// by LocalHistogram flushes and cross-run merges.
func (h *Histogram) AddCounts(counts []int64, sum int64) error {
	if len(counts) != len(h.counts) {
		return fmt.Errorf("obs: histogram %s: merging %d buckets into %d", h.name, len(counts), len(h.counts))
	}
	for i, n := range counts {
		if n != 0 {
			h.counts[i].Add(n)
		}
	}
	if sum != 0 {
		h.sum.Add(sum)
	}
	return nil
}

// Merge folds another histogram with identical bounds into h.
func (h *Histogram) Merge(o *Histogram) error {
	if len(o.bounds) != len(h.bounds) {
		return fmt.Errorf("obs: histogram %s: bound count mismatch with %s", h.name, o.name)
	}
	for i, b := range o.bounds {
		if h.bounds[i] != b {
			return fmt.Errorf("obs: histogram %s: bound %d differs from %s", h.name, i, o.name)
		}
	}
	counts := make([]int64, len(o.counts))
	for i := range o.counts {
		counts[i] = o.counts[i].Load()
	}
	return h.AddCounts(counts, o.sum.Load())
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"` // len(Bounds)+1; last is overflow
	Count  int64   `json:"count"`
	Sum    int64   `json:"sum"`
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]int64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
	}
	for i := range h.counts {
		n := h.counts[i].Load()
		s.Counts[i] = n
		s.Count += n
	}
	s.Sum = h.sum.Load()
	return s
}

// LocalHistogram is a single-writer, non-atomic accumulator bound to a
// shared Histogram. Observe is a plain bucket search and two integer
// increments; Flush pushes the accumulated deltas into the shared
// instrument. It is the zero-overhead path for tight simulation loops.
type LocalHistogram struct {
	h      *Histogram
	counts []int64
	sum    int64
	n      int
}

// Local returns a new local accumulator for the histogram.
func (h *Histogram) Local() *LocalHistogram {
	return &LocalHistogram{h: h, counts: make([]int64, len(h.counts))}
}

// Observe records one value locally.
func (l *LocalHistogram) Observe(v int64) {
	l.counts[l.h.bucket(v)]++
	l.sum += v
	l.n++
}

// Pending returns the number of observations not yet flushed.
func (l *LocalHistogram) Pending() int { return l.n }

// Flush merges the accumulated deltas into the shared histogram and
// clears the local state.
func (l *LocalHistogram) Flush() {
	if l.n == 0 {
		return
	}
	// Bounds match by construction; AddCounts cannot fail.
	_ = l.h.AddCounts(l.counts, l.sum)
	for i := range l.counts {
		l.counts[i] = 0
	}
	l.sum = 0
	l.n = 0
}

// ExpBuckets returns n exponential bucket bounds: start, start*factor,
// ... rounded up to distinct integers.
func ExpBuckets(start int64, factor float64, n int) []int64 {
	if start < 1 {
		start = 1
	}
	out := make([]int64, 0, n)
	v := float64(start)
	last := int64(0)
	for len(out) < n {
		b := int64(v)
		if b <= last {
			b = last + 1
		}
		out = append(out, b)
		last = b
		v *= factor
	}
	return out
}

// LinearBuckets returns n linear bucket bounds: start, start+width, ...
func LinearBuckets(start, width int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = start + int64(i)*width
	}
	return out
}

// Registry holds named instruments. Registration is idempotent: asking
// for an existing name returns the existing instrument (histograms must
// re-state identical bounds). Hold the returned instrument, not the
// registry, in hot code.
//
// The name table is copy-on-write behind an atomic pointer: a lookup of
// a registered name takes no lock, and a new name publishes a new table
// with compare-and-swap. Parallel simulators that resolve their
// instruments at the start and end of every run therefore never
// serialize on the registry.
type Registry struct {
	names atomic.Pointer[nameTable]
}

// nameTable is one immutable version of a registry's instruments.
type nameTable struct {
	order  []string       // registration order
	byName map[string]any // *Counter, *Gauge, *GaugeVec or *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// table returns the current name table (empty before any registration).
func (r *Registry) table() *nameTable {
	if t := r.names.Load(); t != nil {
		return t
	}
	return &nameTable{}
}

// kindOf names an instrument's kind for registration-conflict panics.
func kindOf(inst any) string {
	switch inst.(type) {
	case *Counter:
		return "counter"
	case *Gauge:
		return "gauge"
	case *GaugeVec:
		return "gaugevec"
	}
	return "histogram"
}

// register returns the instrument of type T registered under name,
// registering the one mk builds when the name is new. A name registered
// as another kind panics.
func register[T any](r *Registry, name string, mk func() *T) *T {
	for {
		old := r.names.Load()
		t := old
		if t == nil {
			t = &nameTable{}
		}
		if inst, ok := t.byName[name]; ok {
			got, ok := inst.(*T)
			if !ok {
				panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, kindOf(inst), kindOf(new(T))))
			}
			return got
		}
		inst := mk()
		next := &nameTable{
			order:  append(t.order[:len(t.order):len(t.order)], name),
			byName: make(map[string]any, len(t.byName)+1),
		}
		for n, v := range t.byName {
			next.byName[n] = v
		}
		next.byName[name] = inst
		if r.names.CompareAndSwap(old, next) {
			return inst
		}
	}
}

// Counter returns (registering if needed) the named counter.
func (r *Registry) Counter(name, help string) *Counter {
	return register(r, name, func() *Counter { return &Counter{name: name, help: help} })
}

// Gauge returns (registering if needed) the named gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return register(r, name, func() *Gauge { return &Gauge{name: name, help: help} })
}

// GaugeVec returns (registering if needed) the named labeled gauge
// family. A second registration must use the same label name.
func (r *Registry) GaugeVec(name, help, label string) *GaugeVec {
	v := register(r, name, func() *GaugeVec {
		return &GaugeVec{name: name, help: help, label: label, gauges: map[string]*Gauge{}}
	})
	if v.label != label {
		panic(fmt.Sprintf("obs: gauge vec %q registered with labels %q and %q", name, v.label, label))
	}
	return v
}

// Histogram returns (registering if needed) the named histogram. A
// second registration must use the same bounds.
func (r *Registry) Histogram(name, help string, bounds []int64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bound")
	}
	if !sort.SliceIsSorted(bounds, func(i, j int) bool { return bounds[i] < bounds[j] }) {
		panic(fmt.Sprintf("obs: histogram %s: bounds not strictly ascending", name))
	}
	h := register(r, name, func() *Histogram {
		return &Histogram{
			name:   name,
			help:   help,
			bounds: append([]int64(nil), bounds...),
			pow2:   isPow2Bounds(bounds),
			counts: make([]atomic.Int64, len(bounds)+1),
		}
	})
	if len(h.bounds) != len(bounds) {
		panic(fmt.Sprintf("obs: histogram %s re-registered with different bounds", name))
	}
	for i, b := range bounds {
		if h.bounds[i] != b {
			panic(fmt.Sprintf("obs: histogram %s re-registered with different bounds", name))
		}
	}
	return h
}

// Snapshot is a point-in-time copy of every instrument in a registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	GaugeVecs  map[string]map[string]int64  `json:"gauge_vecs,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the registry's current values.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	for name, inst := range r.table().byName {
		switch inst := inst.(type) {
		case *Counter:
			s.Counters[name] = inst.Value()
		case *Gauge:
			s.Gauges[name] = inst.Value()
		case *GaugeVec:
			if s.GaugeVecs == nil {
				s.GaugeVecs = map[string]map[string]int64{}
			}
			s.GaugeVecs[name] = inst.Values()
		case *Histogram:
			s.Histograms[name] = inst.Snapshot()
		}
	}
	return s
}

// Merge folds another registry's instruments into r, registering any
// missing names. Counter values add, gauges take the other's value, and
// histograms merge per bucket (bounds must match).
func (r *Registry) Merge(o *Registry) error {
	t := o.table()
	for _, name := range t.order {
		switch inst := t.byName[name].(type) {
		case *Counter:
			r.Counter(name, inst.help).Add(inst.Value())
		case *Gauge:
			r.Gauge(name, inst.help).Set(inst.Value())
		case *GaugeVec:
			v := r.GaugeVec(name, inst.help, inst.label)
			for label, val := range inst.Values() {
				v.With(label).Set(val)
			}
		case *Histogram:
			if err := r.Histogram(name, inst.help, inst.bounds).Merge(inst); err != nil {
				return err
			}
		}
	}
	return nil
}

// WritePrometheus renders every instrument in Prometheus text exposition
// format (version 0.0.4), in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	t := r.table()
	for _, name := range t.order {
		switch inst := t.byName[name].(type) {
		case *Counter:
			if inst.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, inst.help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, inst.Value()); err != nil {
				return err
			}
		case *Gauge:
			if inst.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, inst.help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", name, name, inst.Value()); err != nil {
				return err
			}
		case *GaugeVec:
			if inst.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, inst.help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n", name); err != nil {
				return err
			}
			vals := inst.Values()
			labels := make([]string, 0, len(vals))
			for label := range vals {
				labels = append(labels, label)
			}
			sort.Strings(labels)
			for _, label := range labels {
				if _, err := fmt.Fprintf(w, "%s{%s=%q} %d\n", name, inst.label, label, vals[label]); err != nil {
					return err
				}
			}
		case *Histogram:
			s := inst.Snapshot()
			if inst.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, inst.help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
				return err
			}
			var cum int64
			for i, b := range s.Bounds {
				cum += s.Counts[i]
				if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, b, cum); err != nil {
					return err
				}
			}
			cum += s.Counts[len(s.Bounds)]
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
				name, cum, name, s.Sum, name, cum); err != nil {
				return err
			}
		}
	}
	return nil
}

// Publisher is implemented by subsystems that can publish their internal
// counters into a registry at the end of a run (memory hierarchy, branch
// predictor, value predictors).
type Publisher interface {
	PublishMetrics(*Registry)
}
