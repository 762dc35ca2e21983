// Command rvpadmin is the offline operator toolbox for rvpd and
// `experiments -resume` state directories.
//
// Usage:
//
//	rvpadmin fsck [-repair] [-quarantine dir] <state-dir>...
//
// fsck scrubs every durable artifact under the given state
// directories while the services are stopped:
//
//   - *.jsonl write-ahead logs are scanned record by record (CRC
//     envelopes), distinguishing a torn tail (crash mid-append;
//     repairable) from interior damage (bitrot or an outside writer;
//     never silently repaired).
//   - *.ckpt checkpoint files are structurally verified against their
//     embedded CRC.
//
// With -repair, torn WAL tails are truncated to the last valid record
// (the cut bytes are preserved next to the log, or under the
// quarantine directory when one is given). With -quarantine dir,
// interior-corrupt WALs and damaged checkpoints are moved aside so the
// next service start begins clean instead of refusing to open.
//
// Exit codes: 0 everything clean (or fully repaired/quarantined),
// 1 damage found that was not (or could not be) handled, 2 usage or
// I/O error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"rvpsim/internal/checkpoint"
	"rvpsim/internal/vfs"
	"rvpsim/internal/wal"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		fmt.Fprintln(stderr, "usage: rvpadmin fsck [-repair] [-quarantine dir] <state-dir>...")
		return 2
	}
	switch args[0] {
	case "fsck":
		return runFsck(args[1:], stdout, stderr)
	default:
		fmt.Fprintf(stderr, "rvpadmin: unknown subcommand %q (want fsck)\n", args[0])
		return 2
	}
}

func runFsck(args []string, stdout, stderr io.Writer) int {
	fset := flag.NewFlagSet("fsck", flag.ContinueOnError)
	fset.SetOutput(stderr)
	repair := fset.Bool("repair", false, "truncate torn WAL tails to the last valid record (cut bytes preserved)")
	quarantine := fset.String("quarantine", "", "move interior-corrupt WALs and damaged checkpoints into this directory")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	dirs := fset.Args()
	if len(dirs) == 0 {
		fmt.Fprintln(stderr, "rvpadmin fsck: at least one state directory required")
		return 2
	}
	fsck := &fsck{
		fsys:       vfs.OS,
		repair:     *repair,
		quarantine: *quarantine,
		stdout:     stdout,
		stderr:     stderr,
	}
	for _, dir := range dirs {
		if err := fsck.walk(dir); err != nil {
			fmt.Fprintf(stderr, "rvpadmin fsck: %s: %v\n", dir, err)
			return 2
		}
	}
	fmt.Fprintf(stdout, "fsck: %d file(s) scanned, %d damaged, %d repaired, %d quarantined\n",
		fsck.scanned, fsck.damaged, fsck.repaired, fsck.quarantined)
	if fsck.damaged > fsck.repaired+fsck.quarantined {
		return 1
	}
	return 0
}

// fsck carries the scrub state across files and directories.
type fsck struct {
	fsys       vfs.FS
	repair     bool
	quarantine string
	stdout     io.Writer
	stderr     io.Writer

	scanned     int
	damaged     int
	repaired    int
	quarantined int
}

func (f *fsck) walk(dir string) error {
	return filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// Never descend into our own quarantine output.
			if f.quarantine != "" && samePath(path, f.quarantine) {
				return filepath.SkipDir
			}
			return nil
		}
		switch {
		case strings.HasSuffix(path, ".jsonl"):
			return f.checkWAL(path)
		case strings.HasSuffix(path, ".ckpt"):
			return f.checkCheckpoint(path)
		}
		return nil
	})
}

func samePath(a, b string) bool {
	aa, err1 := filepath.Abs(a)
	bb, err2 := filepath.Abs(b)
	return err1 == nil && err2 == nil && aa == bb
}

func (f *fsck) checkWAL(path string) error {
	f.scanned++
	rep, err := wal.Scrub(f.fsys, path, nil)
	if err != nil {
		return fmt.Errorf("scrub %s: %w", path, err)
	}
	if rep.Clean() {
		fmt.Fprintf(f.stdout, "ok    %s (%d records)\n", path, rep.Records)
		return nil
	}
	f.damaged++
	fmt.Fprintf(f.stdout, "DAMAGED %s: %s\n", path, rep)
	for _, is := range rep.Issues {
		fmt.Fprintf(f.stdout, "        line %d @%d: %s\n", is.Line, is.Offset, is.Reason)
	}
	switch {
	case rep.Interior && f.quarantine != "":
		dst, err := wal.Quarantine(f.fsys, path, f.quarantine, nil)
		if err != nil {
			return fmt.Errorf("quarantine %s: %w", path, err)
		}
		f.quarantined++
		fmt.Fprintf(f.stdout, "        quarantined -> %s\n", dst)
	case !rep.Interior && f.repair:
		qdir := f.quarantine
		if qdir == "" {
			qdir = filepath.Dir(path)
		}
		if _, err := wal.RepairTail(f.fsys, path, qdir, nil); err != nil {
			return fmt.Errorf("repair %s: %w", path, err)
		}
		f.repaired++
		fmt.Fprintf(f.stdout, "        tail repaired (cut bytes saved under %s)\n", qdir)
	case rep.Interior:
		fmt.Fprintf(f.stdout, "        interior damage: rerun with -quarantine <dir> to move aside\n")
	default:
		fmt.Fprintf(f.stdout, "        torn tail: rerun with -repair to truncate to the last valid record\n")
	}
	return nil
}

func (f *fsck) checkCheckpoint(path string) error {
	f.scanned++
	data, err := vfs.ReadFile(f.fsys, path)
	if err != nil {
		return fmt.Errorf("read %s: %w", path, err)
	}
	if err := checkpoint.Verify(data); err != nil {
		f.damaged++
		fmt.Fprintf(f.stdout, "DAMAGED %s: %v\n", path, err)
		if f.quarantine != "" {
			if qerr := quarantineFile(f.fsys, path, f.quarantine); qerr != nil {
				return fmt.Errorf("quarantine %s: %w", path, qerr)
			}
			f.quarantined++
			fmt.Fprintf(f.stdout, "        quarantined -> %s\n",
				filepath.Join(f.quarantine, filepath.Base(path)+".corrupt"))
		} else {
			fmt.Fprintf(f.stdout, "        rerun with -quarantine <dir> to move aside (the run will recompute)\n")
		}
		return nil
	}
	fmt.Fprintf(f.stdout, "ok    %s (%d bytes)\n", path, len(data))
	return nil
}

// quarantineFile moves any damaged file into dir with a .corrupt
// suffix, syncing both directories so the move itself is durable.
func quarantineFile(fsys vfs.FS, path, dir string) error {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	dst := filepath.Join(dir, filepath.Base(path)+".corrupt")
	if err := fsys.Rename(path, dst); err != nil {
		return err
	}
	if err := fsys.SyncDir(dir); err != nil {
		return err
	}
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}
