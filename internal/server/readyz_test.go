package server

import (
	"encoding/json"
	"net/http"
	"testing"
)

// TestReadyzDrainTransition pins the readiness contract: a serving
// daemon answers 200 with ready:true/draining:false, and from the
// moment SIGTERM starts a drain, /readyz answers 503 with an explicit
// Draining:true body — so a load balancer or script can tell a drain
// from a dead daemon, while the still-listening endpoint keeps status
// polls alive.
func TestReadyzDrainTransition(t *testing.T) {
	srv, ts := newTestServer(t, nil)

	get := func() (int, readyStatus) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatalf("GET /readyz: %v", err)
		}
		defer resp.Body.Close()
		var st readyStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("readyz body (status %d): %v", resp.StatusCode, err)
		}
		return resp.StatusCode, st
	}

	code, st := get()
	if code != http.StatusOK || !st.Ready || st.Draining {
		t.Fatalf("before drain: %d %+v, want 200 ready:true draining:false", code, st)
	}

	if !srv.Drain() {
		t.Fatalf("idle drain reported unclean")
	}

	code, st = get()
	if code != http.StatusServiceUnavailable {
		t.Fatalf("during drain: status %d, want 503", code)
	}
	if st.Ready || !st.Draining {
		t.Fatalf("during drain: body %+v, want ready:false draining:true", st)
	}

	// Draining is terminal for this process: the flag never flips back.
	code, st = get()
	if code != http.StatusServiceUnavailable || !st.Draining {
		t.Fatalf("drain did not stick: %d %+v", code, st)
	}
}
