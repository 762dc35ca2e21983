package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "test", []int64{2, 4, 8})
	// Bounds are inclusive upper bounds; one overflow bucket follows.
	cases := []struct {
		v    int64
		want int
	}{
		{-1, 0}, {0, 0}, {1, 0}, {2, 0},
		{3, 1}, {4, 1},
		{5, 2}, {8, 2},
		{9, 3}, {1 << 40, 3},
	}
	for _, c := range cases {
		if got := h.bucket(c.v); got != c.want {
			t.Errorf("bucket(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	for _, c := range cases {
		h.Observe(c.v)
	}
	s := h.Snapshot()
	wantCounts := []int64{4, 2, 2, 2}
	for i, w := range wantCounts {
		if s.Counts[i] != w {
			t.Errorf("snapshot counts[%d] = %d, want %d", i, s.Counts[i], w)
		}
	}
	if s.Count != 10 {
		t.Errorf("snapshot count = %d, want 10", s.Count)
	}
	var wantSum int64
	for _, c := range cases {
		wantSum += c.v
	}
	if s.Sum != wantSum {
		t.Errorf("snapshot sum = %d, want %d", s.Sum, wantSum)
	}
}

func TestHistogramPow2FastPathMatchesScan(t *testing.T) {
	h := NewRegistry().Histogram("h", "", ExpBuckets(2, 2, 14))
	if !h.pow2 {
		t.Fatal("ExpBuckets(2,2,14) should take the power-of-two fast path")
	}
	for v := int64(-3); v < 70_000; v++ {
		if got, want := h.bucket(v), h.bucketScan(v); got != want {
			t.Fatalf("bucket(%d) = %d, scan gives %d", v, got, want)
		}
	}
	for _, v := range []int64{1 << 32, 1 << 62} {
		if got, want := h.bucket(v), h.bucketScan(v); got != want {
			t.Fatalf("bucket(%d) = %d, scan gives %d", v, got, want)
		}
	}
	if NewRegistry().Histogram("g", "", []int64{2, 4, 9}).pow2 {
		t.Error("non-power-of-two bounds must use the scan path")
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewRegistry().Histogram("h", "", []int64{1, 10})
	b := NewRegistry().Histogram("h", "", []int64{1, 10})
	a.Observe(1)
	a.Observe(5)
	b.Observe(100)
	b.Observe(5)
	if err := a.Merge(b); err != nil {
		t.Fatalf("merge: %v", err)
	}
	s := a.Snapshot()
	if got, want := s.Counts[0], int64(1); got != want {
		t.Errorf("counts[0] = %d, want %d", got, want)
	}
	if got, want := s.Counts[1], int64(2); got != want {
		t.Errorf("counts[1] = %d, want %d", got, want)
	}
	if got, want := s.Counts[2], int64(1); got != want {
		t.Errorf("counts[2] = %d, want %d", got, want)
	}
	if got, want := s.Sum, int64(111); got != want {
		t.Errorf("sum = %d, want %d", got, want)
	}

	mismatch := NewRegistry().Histogram("h", "", []int64{1, 10, 100})
	if err := a.Merge(mismatch); err == nil {
		t.Error("merge with mismatched bounds should fail")
	}
	if err := a.AddCounts([]int64{1, 2}, 3); err == nil {
		t.Error("AddCounts with wrong bucket count should fail")
	}
}

func TestLocalHistogramFlush(t *testing.T) {
	h := NewRegistry().Histogram("h", "", []int64{4, 16})
	l := h.Local()
	for v := int64(1); v <= 20; v++ {
		l.Observe(v)
	}
	if h.Snapshot().Count != 0 {
		t.Error("shared histogram should be empty before flush")
	}
	if l.Pending() != 20 {
		t.Errorf("pending = %d, want 20", l.Pending())
	}
	l.Flush()
	if l.Pending() != 0 {
		t.Errorf("pending after flush = %d, want 0", l.Pending())
	}
	s := h.Snapshot()
	if s.Count != 20 || s.Sum != 210 {
		t.Errorf("after flush count=%d sum=%d, want 20, 210", s.Count, s.Sum)
	}
	// Flushing twice must not double-count.
	l.Flush()
	if got := h.Snapshot().Count; got != 20 {
		t.Errorf("after second flush count = %d, want 20", got)
	}
}

func TestExpBucketsDistinctAscending(t *testing.T) {
	b := ExpBuckets(1, 1.3, 12)
	if len(b) != 12 {
		t.Fatalf("len = %d, want 12", len(b))
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Errorf("bounds not strictly ascending at %d: %v", i, b)
		}
	}
	lin := LinearBuckets(10, 5, 4)
	want := []int64{10, 15, 20, 25}
	for i, w := range want {
		if lin[i] != w {
			t.Errorf("LinearBuckets[%d] = %d, want %d", i, lin[i], w)
		}
	}
}

func TestRegistryIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("c", "help")
	c2 := r.Counter("c", "ignored on re-register")
	if c1 != c2 {
		t.Error("re-registering a counter should return the same instrument")
	}
	h1 := r.Histogram("h", "", []int64{1, 2})
	h2 := r.Histogram("h", "", []int64{1, 2})
	if h1 != h2 {
		t.Error("re-registering a histogram should return the same instrument")
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("re-registering histogram with different bounds should panic")
			}
		}()
		r.Histogram("h", "", []int64{1, 3})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("registering a counter name as a gauge should panic")
			}
		}()
		r.Gauge("c", "")
	}()
}

func TestRegistryConcurrentSafety(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("shared_total", "")
			h := r.Histogram("shared_hist", "", []int64{8, 64})
			g := r.Gauge("shared_gauge", "")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(int64(i % 100))
				g.Set(int64(i))
				if i%1000 == 0 {
					// Names registered concurrently must all survive.
					r.Counter(fmt.Sprintf("w%d_%d_total", w, i), "").Inc()
				}
			}
		}(w)
	}
	// Concurrent readers exercise Snapshot and the exporter while
	// writers are active; the race detector checks safety.
	for i := 0; i < 10; i++ {
		r.Snapshot()
		_ = r.WritePrometheus(&strings.Builder{})
	}
	wg.Wait()
	if got := r.Counter("shared_total", "").Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Histogram("shared_hist", "", []int64{8, 64}).Snapshot().Count; got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
	ctrs := r.Snapshot().Counters
	if want := 1 + workers*perWorker/1000; len(ctrs) != want {
		t.Errorf("%d counters registered, want %d", len(ctrs), want)
	}
	for name, v := range ctrs {
		if name != "shared_total" && v != 1 {
			t.Errorf("%s = %d, want 1", name, v)
		}
	}
}

func TestRegistryMerge(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("c", "").Add(5)
	b.Counter("c", "").Add(7)
	b.Counter("only_b", "").Add(1)
	b.Gauge("g", "").Set(42)
	b.Histogram("h", "", []int64{10}).Observe(3)
	if err := a.Merge(b); err != nil {
		t.Fatalf("merge: %v", err)
	}
	s := a.Snapshot()
	if s.Counters["c"] != 12 {
		t.Errorf("merged counter = %d, want 12", s.Counters["c"])
	}
	if s.Counters["only_b"] != 1 {
		t.Errorf("merged new counter = %d, want 1", s.Counters["only_b"])
	}
	if s.Gauges["g"] != 42 {
		t.Errorf("merged gauge = %d, want 42", s.Gauges["g"])
	}
	if s.Histograms["h"].Count != 1 {
		t.Errorf("merged histogram count = %d, want 1", s.Histograms["h"].Count)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("runs_total", "number of runs").Add(3)
	r.Gauge("occupancy", "").Set(-2)
	h := r.Histogram("lat", "latency", []int64{1, 4})
	h.Observe(1)
	h.Observe(2)
	h.Observe(9)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	for _, want := range []string{
		"# HELP runs_total number of runs\n",
		"# TYPE runs_total counter\nruns_total 3\n",
		"# TYPE occupancy gauge\noccupancy -2\n",
		"# TYPE lat histogram\n",
		"lat_bucket{le=\"1\"} 1\n",
		"lat_bucket{le=\"4\"} 2\n",
		"lat_bucket{le=\"+Inf\"} 3\n",
		"lat_sum 12\n",
		"lat_count 3\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition missing %q; got:\n%s", want, got)
		}
	}
	// Registration order is stable: counter before gauge before histogram.
	if strings.Index(got, "runs_total") > strings.Index(got, "occupancy") {
		t.Error("exposition should preserve registration order")
	}
}

func TestObserverSeqAndSinks(t *testing.T) {
	o := NewObserver()
	if o.HasSinks() {
		t.Error("fresh observer should have no sinks")
	}
	var nilObs *Observer
	if nilObs.HasSinks() || nilObs.Registry() != nil {
		t.Error("nil observer must report no sinks and no registry")
	}
	if (&Observer{}).Registry() != nil {
		t.Error("zero observer must have no registry")
	}
	var got []uint64
	o.AddSink(SinkFunc(func(e *Event) { got = append(got, e.Seq) }))
	// Seq is the producer's commit index; the observer passes it through.
	for i := 0; i < 5; i++ {
		o.Emit(&Event{Seq: uint64(100 + i), Index: i})
	}
	if len(got) != 5 {
		t.Fatalf("sink saw %d events, want 5", len(got))
	}
	for i, s := range got {
		if s != uint64(100+i) {
			t.Errorf("seq[%d] = %d, want %d", i, s, 100+i)
		}
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
}
