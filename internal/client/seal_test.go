package client

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"rvpsim/internal/server"
	"rvpsim/internal/simerr"
)

// flipResultByte is middleware over a real daemon: status responses
// carrying a result get one digit of the result's cycle count changed,
// which keeps the JSON valid but breaks the seal.
func flipResultByte(t *testing.T, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		next.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if i := bytes.Index(body, []byte(`"result":`)); i >= 0 {
			j := bytes.Index(body[i:], []byte(`"Cycles":`))
			if j < 0 {
				t.Errorf("served result has no cycle count: %s", body)
			} else {
				d := &body[i+j+len(`"Cycles":`)]
				if *d == '9' {
					*d = '8'
				} else {
					*d++
				}
			}
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		_, _ = w.Write(body)
	})
}

// TestStatusAndWaitRejectTamperedResult runs one real job, reads its
// sealed result cleanly, then reads it again through a proxy that flips
// one byte of the served result: Status and Wait must both refuse it
// with a *CorruptResultError instead of handing back a wrong number.
func TestStatusAndWaitRejectTamperedResult(t *testing.T) {
	srv, err := server.New(server.Config{StateDir: t.TempDir(), Workers: 1, DefaultInsts: 5_000})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	bad := httptest.NewServer(flipResultByte(t, srv.Handler()))
	defer bad.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	c := New(ts.URL, WithBackoff(fastBackoff()))
	st, err := c.SubmitAndWait(ctx, testSpec, "seal", 10*time.Millisecond)
	if err != nil {
		t.Fatalf("clean SubmitAndWait: %v", err)
	}
	if st.State != server.StateSucceeded || st.Result == nil || st.Result.Digest == "" {
		t.Fatalf("clean job = %+v, want a sealed success", st)
	}

	tampered := New(bad.URL, WithBackoff(fastBackoff()))
	if _, err := tampered.Status(ctx, st.ID); !isCorrupt(err) {
		t.Fatalf("Status on a tampered result: err = %v, want *CorruptResultError", err)
	}
	if _, err := tampered.Wait(ctx, st.ID, 10*time.Millisecond); !isCorrupt(err) {
		t.Fatalf("Wait on a tampered result: err = %v, want *CorruptResultError", err)
	}
}

func isCorrupt(err error) bool {
	var ce *CorruptResultError
	return errors.As(err, &ce) && errors.Is(err, simerr.ErrCorrupt)
}
