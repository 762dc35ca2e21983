// Package waltest is the shared torn/corrupt-tail conformance matrix
// for every store built on internal/wal. The job store and the sweep
// journal claim the same recovery contract; this package makes that
// claim a single table-driven test each of them runs verbatim, so the
// stores cannot quietly diverge again:
//
//   - truncation at EVERY byte position inside the final envelope line
//     must recover all earlier records and count exactly the torn one;
//   - a flipped CRC digit in the final record must be treated as tail
//     damage (recover n-1, truncate 1);
//   - a flipped payload byte in the final record likewise;
//   - the same flip applied to the FIRST record (valid records follow)
//     must refuse to open with a *wal.CorruptError wrapping
//     simerr.ErrCorrupt, leaving the file byte-identical.
package waltest

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"rvpsim/internal/simerr"
	"rvpsim/internal/vfs"
	"rvpsim/internal/wal"
)

// Store adapts one typed WAL user to the matrix.
type Store struct {
	// Records returns the n distinct payloads to seed the log with
	// (n >= 3). Each must be a JSON-marshalable value the store's replay
	// accepts, with a distinct identity (job ID, cell key, sweep ID) so
	// the recovered count equals the record count.
	Records func(n int) []any
	// Open opens the store under test at path on fsys and reports how
	// many distinct records it recovered and how many damaged tail
	// records it truncated. The error must be the store's open error,
	// unwrapped no further.
	Open func(fsys vfs.FS, path string) (records, truncated int, err error)
}

// Run executes the matrix against one store. path should carry the
// store's real filename (e.g. "/state/jobs.jsonl") so suffix-based
// tooling behaves as in production.
func Run(t *testing.T, path string, st Store) {
	t.Helper()
	const n = 4
	payloads := st.Records(n)
	if len(payloads) != n {
		t.Fatalf("Records(%d) returned %d payloads", n, len(payloads))
	}

	// Seed one clean log through the engine itself, then capture bytes.
	seedFS := vfs.NewMem()
	w, err := wal.Open(path, wal.Options{FS: seedFS}, nil)
	if err != nil {
		t.Fatalf("seeding: %v", err)
	}
	for i, p := range payloads {
		if err := w.Append(p); err != nil {
			t.Fatalf("seeding append %d: %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	clean, err := vfs.ReadFile(seedFS, path)
	if err != nil {
		t.Fatal(err)
	}
	lastStart := bytes.LastIndexByte(clean[:len(clean)-1], '\n') + 1

	// mount writes data at path on a fresh durable Mem.
	mount := func(t *testing.T, data []byte) *vfs.Mem {
		t.Helper()
		m := vfs.NewMem()
		if err := m.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		f, err := m.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		m.SyncAll()
		return m
	}

	t.Run("clean", func(t *testing.T) {
		recs, trunc, err := st.Open(mount(t, clean), path)
		if err != nil || recs != n || trunc != 0 {
			t.Fatalf("clean log: records=%d truncated=%d err=%v, want %d/0/nil", recs, trunc, err, n)
		}
	})

	// Truncation at every byte of the last envelope: from "nothing of
	// the final line" up to "all but its newline".
	t.Run("truncate-every-byte", func(t *testing.T) {
		for cut := lastStart + 1; cut < len(clean); cut++ {
			recs, trunc, err := st.Open(mount(t, clean[:cut]), path)
			if err != nil {
				t.Fatalf("cut at %d: open failed: %v", cut, err)
			}
			if recs != n-1 {
				t.Fatalf("cut at %d: recovered %d records, want %d", cut, recs, n-1)
			}
			if trunc != 1 {
				t.Fatalf("cut at %d: truncated=%d, want 1", cut, trunc)
			}
		}
		// Cutting exactly at the line boundary is not damage at all.
		recs, trunc, err := st.Open(mount(t, clean[:lastStart]), path)
		if err != nil || recs != n-1 || trunc != 0 {
			t.Fatalf("boundary cut: records=%d truncated=%d err=%v", recs, trunc, err)
		}
	})

	t.Run("flip-crc", func(t *testing.T) {
		mut := flipCRCDigit(t, clean, lastStart)
		recs, trunc, err := st.Open(mount(t, mut), path)
		if err != nil || recs != n-1 || trunc != 1 {
			t.Fatalf("flipped CRC: records=%d truncated=%d err=%v, want %d/1/nil", recs, trunc, err, n-1)
		}
	})

	t.Run("flip-payload", func(t *testing.T) {
		mut := flipPayloadByte(t, clean, lastStart, len(clean)-1)
		recs, trunc, err := st.Open(mount(t, mut), path)
		if err != nil || recs != n-1 || trunc != 1 {
			t.Fatalf("flipped payload: records=%d truncated=%d err=%v, want %d/1/nil", recs, trunc, err, n-1)
		}
	})

	t.Run("interior-refused", func(t *testing.T) {
		firstEnd := bytes.IndexByte(clean, '\n') + 1
		mut := flipPayloadByte(t, clean, 0, firstEnd-1)
		m := mount(t, mut)
		_, _, err := st.Open(m, path)
		if err == nil {
			t.Fatalf("interior damage opened silently")
		}
		var ce *wal.CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("error %T (%v), want *wal.CorruptError", err, err)
		}
		if !errors.Is(err, simerr.ErrCorrupt) {
			t.Fatalf("error does not wrap simerr.ErrCorrupt: %v", err)
		}
		if ce.Line != 1 {
			t.Fatalf("damage reported at line %d, want 1", ce.Line)
		}
		after, err := vfs.ReadFile(m, path)
		if err != nil || !bytes.Equal(after, mut) {
			t.Fatalf("refused open modified the file (err=%v)", err)
		}
	})
}

// flipCRCDigit alters one digit of the final record's crc field,
// keeping the line valid JSON but failing the checksum.
func flipCRCDigit(t *testing.T, clean []byte, lineStart int) []byte {
	t.Helper()
	mut := append([]byte(nil), clean...)
	idx := bytes.Index(mut[lineStart:], []byte(`"crc":`))
	if idx < 0 {
		t.Fatalf("no crc field in final line")
	}
	p := lineStart + idx + len(`"crc":`)
	if mut[p] == '9' {
		mut[p] = '1'
	} else {
		mut[p]++
	}
	return mut
}

// flipPayloadByte flips one bit inside the rec field of the line in
// [lineStart, lineEnd): bad CRC or bad JSON, either way damage.
func flipPayloadByte(t *testing.T, clean []byte, lineStart, lineEnd int) []byte {
	t.Helper()
	mut := append([]byte(nil), clean...)
	idx := bytes.Index(mut[lineStart:lineEnd], []byte(`"rec":`))
	if idx < 0 {
		t.Fatalf("no rec field in line")
	}
	p := lineStart + idx + len(`"rec":`) + 2 // inside the payload object
	if p >= lineEnd {
		t.Fatalf("payload flip position %d past line end %d", p, lineEnd)
	}
	mut[p] ^= 0x08
	return mut
}

// Fmt labels a record deterministically for Records generators.
func Fmt(prefix string, i int) string { return fmt.Sprintf("%s-%03d", prefix, i) }
