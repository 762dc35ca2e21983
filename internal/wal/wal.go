// Package wal is the one hardened write-ahead-log engine behind every
// durable log in the system: the server's job store and the experiment
// runner's sweep journal are typed record layers over this engine, where
// hand-rolled copies of the same CRC/fsync/torn-tail logic used to live.
//
// # On-disk format
//
// One JSON line per record:
//
//	{"crc":<uint32>,"rec":<payload JSON>}\n
//
// The CRC-32 (IEEE) covers the payload's exact bytes, so a torn write
// or bit flip in either field fails validation. This is byte-identical
// to the format the three predecessor stores wrote, in both directions:
// the engine reads every pre-existing state directory, and files it
// writes remain readable by older binaries. ParseEnvelope is that
// compat decoder, exported for scrub tooling.
//
// # Damage model
//
// The engine distinguishes the two ways a log gets hurt, because they
// mean different things and deserve different answers:
//
//   - Tail damage — a torn or corrupt final region with no valid
//     record after it — is the signature of a crash mid-append. The
//     write never returned, so the record was never acknowledged;
//     truncating it away on Open is correct and automatic (counted in
//     Truncated, surfaced in wal_repairs_total).
//   - Interior damage — a record that fails validation while valid
//     records still follow it — cannot be a torn append. It is bitrot
//     or an outside writer, and records after the hole were
//     acknowledged. Open refuses with a typed *CorruptError (wrapping
//     simerr.ErrCorrupt) instead of silently discarding acknowledged
//     state; `rvpadmin fsck` reports and optionally quarantines the
//     file.
//
// Every append is fsync'd before it returns. After a failed append
// (ENOSPC, I/O error, failed fsync) the engine truncates the file back
// to the last durable record — immediately, or on the next append if
// the truncate itself fails — so a partially-landed line can never
// masquerade as interior damage later, and an engine that ran out of
// disk heals itself when space returns.
package wal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"rvpsim/internal/simerr"
	"rvpsim/internal/vfs"
)

// Envelope is one record line: Rec's exact bytes are CRC-protected.
type Envelope struct {
	CRC uint32          `json:"crc"`
	Rec json.RawMessage `json:"rec"`
}

// ParseEnvelope validates one line (without its trailing newline) and
// returns the payload bytes. It accepts exactly the historical formats
// of the job store, sweep journal, and cell ledger — which are one
// format — making it the compat decoder for pre-engine state dirs. The
// reason distinguishes structural damage ("bad json") from integrity
// damage ("bad crc"); blank lines are damage too (no writer emits
// them).
func ParseEnvelope(line []byte) (rec json.RawMessage, reason string) {
	if len(bytes.TrimSpace(line)) == 0 {
		return nil, "blank line"
	}
	var env Envelope
	if err := json.Unmarshal(line, &env); err != nil {
		return nil, "bad json"
	}
	if crc32.ChecksumIEEE(env.Rec) != env.CRC {
		return nil, "bad crc"
	}
	return env.Rec, ""
}

// EncodeRecord wraps payload bytes in the envelope line (with trailing
// newline) exactly as Append writes it.
func EncodeRecord(raw json.RawMessage) ([]byte, error) {
	line, err := json.Marshal(Envelope{CRC: crc32.ChecksumIEEE(raw), Rec: raw})
	if err != nil {
		return nil, err
	}
	return append(line, '\n'), nil
}

// CorruptError is the typed report of interior log damage: validation
// failed at a record that still has valid records after it, so
// acknowledged state would be lost by truncation. It wraps
// simerr.ErrCorrupt for errors.Is classification.
type CorruptError struct {
	Path   string
	Line   int    // 1-based line number of the first damaged record
	Offset int64  // byte offset where the damage starts
	Reason string // "bad crc", "bad json", "blank line"
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("wal %s: interior corruption at record %d (offset %d): %s; "+
		"acknowledged records follow the damage — refusing to truncate (run rvpadmin fsck)",
		e.Path, e.Line, e.Offset, e.Reason)
}

// Unwrap lets errors.Is(err, simerr.ErrCorrupt) classify the failure.
func (e *CorruptError) Unwrap() error { return simerr.ErrCorrupt }

// Options configures a WAL.
type Options struct {
	// FS is the filesystem seam (vfs.OS when nil).
	FS vfs.FS
	// Name labels errors ("jobstore", "journal") — it becomes
	// the simerr stage, preserving each migrated store's historical
	// error identity.
	Name string
	// Metrics receives wal_* instrument updates when non-nil.
	Metrics *Metrics
}

// WAL is one open write-ahead log.
type WAL struct {
	fs   vfs.FS
	path string
	name string
	met  *Metrics

	// Guarded by the typed layers' locks? No — the engine owns its own
	// consistency: Append is safe for concurrent use.
	mu   sync.Mutex
	f    vfs.File
	size int64 // byte offset past the last durable record
	n    int   // records replayed + appended
	// pendingRepair is set when a failed append left bytes past size
	// and the immediate truncate failed too; the next Append retries.
	pendingRepair bool

	// Truncated reports how many damaged tail records were dropped on
	// open.
	Truncated int
}

// Open opens (creating if absent) the log at path and replays every
// valid record through the replay callback, in order, with the payload
// bytes of each. A replay error aborts the open. Tail damage is
// repaired (truncated, durably) and counted; interior damage returns a
// *CorruptError and leaves the file untouched.
func Open(path string, opts Options, replay func(rec json.RawMessage) error) (*WAL, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = vfs.OS
	}
	name := opts.Name
	if name == "" {
		name = "wal"
	}
	dir := filepath.Dir(path)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, simerr.New(name, err)
	}
	_, statErr := fsys.Stat(path)
	created := statErr != nil
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, simerr.New(name, err)
	}
	w := &WAL{fs: fsys, path: path, name: name, met: opts.Metrics, f: f}
	fail := func(err error) (*WAL, error) {
		_ = f.Close() // already failing; the close error adds nothing
		return nil, err
	}
	if created {
		// A brand-new log's directory entry must survive a crash, or the
		// first acknowledged record vanishes with the whole file.
		if err := fsys.SyncDir(dir); err != nil {
			return fail(simerr.New(name, err))
		}
	}

	data, err := io.ReadAll(f)
	if err != nil {
		return fail(simerr.New(name, err))
	}
	valid, lineNo := 0, 0
	for valid < len(data) {
		nl := bytes.IndexByte(data[valid:], '\n')
		if nl < 0 {
			break // unterminated final line: torn write by definition
		}
		lineNo++
		rec, reason := ParseEnvelope(data[valid : valid+nl])
		if reason != "" {
			// Damaged record: tail damage only if nothing valid follows.
			if line, _, ok := firstValidAfter(data[valid+nl+1:]); ok {
				_ = line
				return fail(&CorruptError{Path: path, Line: lineNo, Offset: int64(valid), Reason: reason})
			}
			break
		}
		if replay != nil {
			if rerr := replay(rec); rerr != nil {
				return fail(simerr.New(name, rerr))
			}
		}
		w.n++
		w.met.replayed(1)
		valid += nl + 1
	}
	if valid < len(data) {
		w.Truncated = 1 + bytes.Count(data[valid:], []byte{'\n'})
		if data[len(data)-1] == '\n' {
			w.Truncated--
		}
		if err := f.Truncate(int64(valid)); err != nil {
			return fail(simerr.New(name, err))
		}
		// The repair itself must be durable: a crash after ack'ing new
		// appends must not resurrect the old torn bytes past them.
		if err := f.Sync(); err != nil {
			return fail(simerr.New(name, err))
		}
		w.met.repairs(1)
	}
	if _, err := f.Seek(int64(valid), io.SeekStart); err != nil {
		return fail(simerr.New(name, err))
	}
	w.size = int64(valid)
	return w, nil
}

// firstValidAfter scans rest (starting at a line boundary) for a valid
// record, returning its line offset within rest.
func firstValidAfter(rest []byte) (line int, off int, ok bool) {
	for off < len(rest) {
		nl := bytes.IndexByte(rest[off:], '\n')
		if nl < 0 {
			return 0, 0, false
		}
		line++
		if _, reason := ParseEnvelope(rest[off : off+nl]); reason == "" {
			return line, off, true
		}
		off += nl + 1
	}
	return 0, 0, false
}

// Append marshals payload, envelopes it, writes and fsyncs it. The
// record is durable when Append returns nil; on any error the record
// is not acknowledged and the log is rolled back (now or on the next
// Append) to its last durable byte.
func (w *WAL) Append(payload any) error {
	raw, err := json.Marshal(payload)
	if err != nil {
		return simerr.New(w.name, err)
	}
	return w.AppendRaw(raw)
}

// AppendRaw appends pre-marshaled payload bytes.
func (w *WAL) AppendRaw(raw json.RawMessage) error {
	line, err := EncodeRecord(raw)
	if err != nil {
		return simerr.New(w.name, err)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.pendingRepair {
		if err := w.rollbackLocked(); err != nil {
			w.met.appendErrors(1)
			return simerr.New(w.name, fmt.Errorf("log tail still torn from an earlier failed append: %w", err))
		}
	}
	if _, err := w.f.Write(line); err != nil {
		w.met.appendErrors(1)
		w.failedAppendLocked()
		return simerr.New(w.name, err)
	}
	start := time.Now()
	if err := w.f.Sync(); err != nil {
		// Post-fsync-failure page-cache state is unknowable; the record
		// is not acknowledged and the tail is rolled back.
		w.met.appendErrors(1)
		w.failedAppendLocked()
		return simerr.New(w.name, err)
	}
	w.met.fsync(time.Since(start))
	w.size += int64(len(line))
	w.n++
	w.met.appends(1)
	return nil
}

// failedAppendLocked rolls the file back to the last durable record
// after a failed write or fsync, so partial bytes never linger. If the
// rollback itself fails (the disk is truly gone), the repair is
// re-attempted on the next append.
func (w *WAL) failedAppendLocked() {
	w.pendingRepair = true
	_ = w.rollbackLocked() // best effort now; retried on next Append
}

func (w *WAL) rollbackLocked() error {
	if err := w.f.Truncate(w.size); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	if _, err := w.f.Seek(w.size, io.SeekStart); err != nil {
		return err
	}
	w.pendingRepair = false
	return nil
}

// Probe verifies the log's storage can still take durable writes by
// round-tripping a scratch file next to the log: write, fsync, remove.
// It is how a degraded service decides the disk has come back.
func (w *WAL) Probe() error {
	dir := filepath.Dir(w.path)
	probe := filepath.Join(dir, ".wal-probe")
	f, err := w.fs.OpenFile(probe, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return simerr.New(w.name, err)
	}
	if _, err := f.Write([]byte("probe\n")); err != nil {
		_ = f.Close()
		_ = w.fs.Remove(probe)
		return simerr.New(w.name, err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		_ = w.fs.Remove(probe)
		return simerr.New(w.name, err)
	}
	if err := f.Close(); err != nil {
		_ = w.fs.Remove(probe)
		return simerr.New(w.name, err)
	}
	return w.fs.Remove(probe)
}

// Records reports how many records the log holds (replayed + appended).
func (w *WAL) Records() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n
}

// Path returns the log's location.
func (w *WAL) Path() string { return w.path }

// Close closes the underlying file.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}
