package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenEvents is a small deterministic trace: three instructions with
// distinct timing shapes (plain, predicted-correct, predicted-wrong).
// The producer stamps Seq, so the input carries it.
func goldenEvents() []Event {
	return []Event{
		{Seq: 0, Index: 0, Fetch: 0, Dispatch: 2, Issue: 3, Done: 5, Commit: 6},
		{Seq: 1, Index: 1, Fetch: 0, Dispatch: 2, Issue: 2, Done: 4, Commit: 7, Predicted: true, Correct: true},
		{Seq: 2, Index: 2, Fetch: 1, Dispatch: 3, Issue: 6, Done: 9, Commit: 12, Predicted: true, Correct: false},
	}
}

func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	ct := NewChromeTrace(&buf)
	ct.Lanes = 2
	o := NewObserver()
	o.AddSink(ct)
	events := goldenEvents()
	for i := range events {
		o.Emit(&events[i])
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()

	golden := filepath.Join("testdata", "chrome_trace.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("trace differs from golden file %s (run with -update to regenerate)\ngot:\n%s", golden, got)
	}
}

// TestChromeTraceWellFormed checks the structural contract consumers
// rely on: the output is a JSON array of trace events where every
// non-metadata event is a complete ("ph":"X") span with pid, tid, ts
// and a non-negative dur.
func TestChromeTraceWellFormed(t *testing.T) {
	var buf bytes.Buffer
	ct := NewChromeTrace(&buf)
	ct.Lanes = 3
	o := NewObserver()
	o.AddSink(ct)
	events := goldenEvents()
	for i := range events {
		o.Emit(&events[i])
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}

	type traceEvent struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Pid  *int           `json:"pid"`
		Tid  *int64         `json:"tid"`
		Ts   *int64         `json:"ts"`
		Dur  *int64         `json:"dur"`
		Args map[string]any `json:"args"`
	}
	var parsed []traceEvent
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("output is not a JSON array: %v", err)
	}
	var spans, meta int
	for i, e := range parsed {
		switch e.Ph {
		case "M":
			meta++
		case "X":
			spans++
			if e.Pid == nil || e.Tid == nil || e.Ts == nil || e.Dur == nil {
				t.Errorf("event %d (%s) missing pid/tid/ts/dur", i, e.Name)
				continue
			}
			if *e.Dur < 0 {
				t.Errorf("event %d (%s) has negative dur %d", i, e.Name, *e.Dur)
			}
			if *e.Tid < 0 || *e.Tid >= int64(ct.Lanes) {
				t.Errorf("event %d (%s) tid %d outside [0,%d)", i, e.Name, *e.Tid, ct.Lanes)
			}
		default:
			t.Errorf("event %d has unexpected phase %q", i, e.Ph)
		}
	}
	// Four spans per instruction; one process plus Lanes thread names.
	if want := 4 * len(events); spans != want {
		t.Errorf("spans = %d, want %d", spans, want)
	}
	if want := 1 + ct.Lanes; meta != want {
		t.Errorf("metadata events = %d, want %d", meta, want)
	}
}

// TestChromeTraceEmpty checks that a trace with no events is still a
// valid JSON array (metadata only).
func TestChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	ct := NewChromeTrace(&buf)
	ct.Lanes = 1
	if err := ct.Close(); err != nil {
		t.Fatal(err)
	}
	var parsed []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("empty trace is not valid JSON: %v", err)
	}
	if len(parsed) != 2 {
		t.Errorf("empty trace has %d events, want 2 metadata events", len(parsed))
	}
}
