package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"rvpsim/internal/exp"
	"rvpsim/internal/server"
)

func fastBackoff() Backoff {
	return Backoff{Base: time.Millisecond, Max: 10 * time.Millisecond, Factor: 2}
}

var testSpec = exp.JobSpec{Kind: "run", Workload: "go", Predictor: "rvp", Insts: 5000}

// scriptedServer answers POST /v1/jobs from a list of canned responses,
// recording the Idempotency-Key of every attempt.
type scriptedServer struct {
	mu      sync.Mutex
	replies []func(w http.ResponseWriter)
	keys    []string
}

func (s *scriptedServer) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.keys = append(s.keys, r.Header.Get("Idempotency-Key"))
		if len(s.replies) == 0 {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		reply := s.replies[0]
		s.replies = s.replies[1:]
		reply(w)
	})
	return mux
}

func reply(status int, retryAfter string, body any) func(http.ResponseWriter) {
	return func(w http.ResponseWriter) {
		if retryAfter != "" {
			w.Header().Set("Retry-After", retryAfter)
		}
		w.WriteHeader(status)
		if body != nil {
			json.NewEncoder(w).Encode(body)
		}
	}
}

func TestSubmitRetriesUntilAccepted(t *testing.T) {
	accepted := server.JobStatus{ID: "j1", State: server.StateQueued, Spec: testSpec}
	ss := &scriptedServer{replies: []func(http.ResponseWriter){
		reply(http.StatusTooManyRequests, "", map[string]string{"error": "queue full"}),
		reply(http.StatusServiceUnavailable, "", map[string]string{"error": "draining"}),
		reply(http.StatusInternalServerError, "", nil),
		reply(http.StatusAccepted, "", accepted),
	}}
	ts := httptest.NewServer(ss.handler())
	defer ts.Close()

	c := New(ts.URL, WithBackoff(fastBackoff()), WithSeed(1))
	st, err := c.Submit(context.Background(), testSpec, "fixed-key")
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st.ID != "j1" {
		t.Fatalf("accepted job = %+v", st)
	}
	if len(ss.keys) != 4 {
		t.Fatalf("attempts = %d, want 4", len(ss.keys))
	}
	for i, k := range ss.keys {
		if k != "fixed-key" {
			t.Fatalf("attempt %d sent key %q; every retry must reuse the idempotency key", i, k)
		}
	}
}

func TestSubmitGeneratesOneKey(t *testing.T) {
	ss := &scriptedServer{replies: []func(http.ResponseWriter){
		reply(http.StatusTooManyRequests, "", nil),
		reply(http.StatusAccepted, "", server.JobStatus{ID: "j1", State: server.StateQueued}),
	}}
	ts := httptest.NewServer(ss.handler())
	defer ts.Close()

	c := New(ts.URL, WithBackoff(fastBackoff()))
	if _, err := c.Submit(context.Background(), testSpec, ""); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if len(ss.keys) != 2 || ss.keys[0] == "" || ss.keys[0] != ss.keys[1] {
		t.Fatalf("generated key not constant across retries: %q", ss.keys)
	}
}

func TestSubmitHonorsRetryAfter(t *testing.T) {
	ss := &scriptedServer{replies: []func(http.ResponseWriter){
		reply(http.StatusTooManyRequests, "1", nil), // server asks for 1s
		reply(http.StatusAccepted, "", server.JobStatus{ID: "j1", State: server.StateQueued}),
	}}
	ts := httptest.NewServer(ss.handler())
	defer ts.Close()

	// Backoff alone would retry after ~1ms; Retry-After must stretch it.
	c := New(ts.URL, WithBackoff(fastBackoff()), WithSeed(1))
	start := time.Now()
	if _, err := c.Submit(context.Background(), testSpec, "k"); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if elapsed := time.Since(start); elapsed < time.Second {
		t.Fatalf("retried after %v, want >= the server's 1s Retry-After", elapsed)
	}
}

func TestSubmitToleratesMalformedRetryAfter(t *testing.T) {
	// A garbage Retry-After must be ignored (fall back to the client's
	// own backoff), never parsed into a huge or negative sleep.
	for _, ra := range []string{"banana", "-5", "0", "  ", "1e9"} {
		ss := &scriptedServer{replies: []func(http.ResponseWriter){
			reply(http.StatusServiceUnavailable, ra, nil),
			reply(http.StatusAccepted, "", server.JobStatus{ID: "j1", State: server.StateQueued}),
		}}
		ts := httptest.NewServer(ss.handler())
		c := New(ts.URL, WithBackoff(fastBackoff()), WithSeed(1))
		start := time.Now()
		_, err := c.Submit(context.Background(), testSpec, "k")
		elapsed := time.Since(start)
		ts.Close()
		if err != nil {
			t.Fatalf("Retry-After=%q: Submit: %v", ra, err)
		}
		if elapsed > 500*time.Millisecond {
			t.Errorf("Retry-After=%q stretched the backoff to %v; malformed hints must be ignored", ra, elapsed)
		}
		if len(ss.keys) != 2 {
			t.Errorf("Retry-After=%q: attempts = %d, want 2", ra, len(ss.keys))
		}
	}
}

func TestSubmitAbsentRetryAfterUsesBackoff(t *testing.T) {
	ss := &scriptedServer{replies: []func(http.ResponseWriter){
		reply(http.StatusServiceUnavailable, "", nil), // no Retry-After at all
		reply(http.StatusAccepted, "", server.JobStatus{ID: "j1", State: server.StateQueued}),
	}}
	ts := httptest.NewServer(ss.handler())
	defer ts.Close()
	c := New(ts.URL, WithBackoff(fastBackoff()), WithSeed(1))
	start := time.Now()
	if _, err := c.Submit(context.Background(), testSpec, "k"); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("absent Retry-After slept %v; the millisecond backoff should govern", elapsed)
	}
}

func TestSubmitFailsFastOnClientError(t *testing.T) {
	ss := &scriptedServer{replies: []func(http.ResponseWriter){
		reply(http.StatusBadRequest, "", map[string]string{"error": "bad spec"}),
	}}
	ts := httptest.NewServer(ss.handler())
	defer ts.Close()

	c := New(ts.URL, WithBackoff(fastBackoff()))
	_, err := c.Submit(context.Background(), testSpec, "k")
	if err == nil {
		t.Fatalf("Submit on 400 = nil error")
	}
	var he *httpError
	if !errors.As(err, &he) || he.StatusCode() != http.StatusBadRequest {
		t.Fatalf("err = %v, want the 400 surfaced directly", err)
	}
	if len(ss.keys) != 1 {
		t.Fatalf("400 was retried: %d attempts", len(ss.keys))
	}
}

func TestSubmitExhaustsAttempts(t *testing.T) {
	ss := &scriptedServer{} // empty script: every attempt gets a 500
	ts := httptest.NewServer(ss.handler())
	defer ts.Close()

	c := New(ts.URL, WithBackoff(fastBackoff()), WithMaxAttempts(3))
	_, err := c.Submit(context.Background(), testSpec, "k")
	var re *RetryableError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RetryableError", err)
	}
	if re.Attempts != 3 || re.LastStatus != http.StatusInternalServerError {
		t.Fatalf("RetryableError = %+v", re)
	}
	if len(ss.keys) != 3 {
		t.Fatalf("attempts = %d, want 3", len(ss.keys))
	}
}

func TestSubmitContextCancel(t *testing.T) {
	ss := &scriptedServer{} // always 500 -> client would retry forever
	ts := httptest.NewServer(ss.handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	c := New(ts.URL, WithBackoff(Backoff{Base: time.Hour, Max: time.Hour, Factor: 1}))
	_, err := c.Submit(ctx, testSpec, "k")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context deadline", err)
	}
}

func TestBackoffShape(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Max: time.Second, Factor: 2}
	rng := func() float64 { return 0.5 }
	prev := time.Duration(0)
	for attempt := 0; attempt < 6; attempt++ {
		d := b.delay(attempt, rng)
		// Equal jitter: delay lies in [full/2, full] of the capped schedule.
		full := float64(b.Base) * float64(int(1)<<attempt)
		if full > float64(b.Max) {
			full = float64(b.Max)
		}
		if float64(d) < full/2 || float64(d) > full {
			t.Fatalf("attempt %d: delay %v outside [%v/2, %v]", attempt, d, time.Duration(full), time.Duration(full))
		}
		if d < prev && float64(d) < float64(b.Max)/2 {
			t.Fatalf("attempt %d: delay %v shrank below previous %v before the cap", attempt, d, prev)
		}
		prev = d
	}
}

func TestWaitPollsToTerminal(t *testing.T) {
	var calls int
	var mu sync.Mutex
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/j1", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		st := server.JobStatus{ID: "j1", State: server.StateRunning}
		if n >= 3 {
			st.State = server.StateSucceeded
		}
		json.NewEncoder(w).Encode(st)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c := New(ts.URL)
	st, err := c.Wait(context.Background(), "j1", time.Millisecond)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if st.State != server.StateSucceeded {
		t.Fatalf("Wait returned state %s", st.State)
	}
}

func TestWaitFailsFastOnNotFound(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(map[string]string{"error": "unknown job"})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c := New(ts.URL)
	_, err := c.Wait(context.Background(), "jmissing", time.Millisecond)
	var he *httpError
	if !errors.As(err, &he) || he.StatusCode() != http.StatusNotFound {
		t.Fatalf("Wait on 404 = %v, want immediate 404", err)
	}
}
