package main

import (
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
)

// TestMain lets a test run this binary as the rvpsim command: with
// RVPSIM_RUN_MAIN set, the process is main() over its own arguments.
func TestMain(m *testing.M) {
	if os.Getenv("RVPSIM_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestTopOrder runs -top on m88ksim, whose inner loop gives a dozen
// static instructions the same prediction count, and requires the
// report to order rows by prediction count, then by static index.
func TestTopOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 100k-instruction simulation")
	}
	cmd := exec.Command(os.Args[0], "-w", "m88ksim", "-n", "100000", "-top", "20")
	cmd.Env = append(os.Environ(), "RVPSIM_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("rvpsim: %v\n%s", err, out)
	}
	_, report, ok := strings.Cut(string(out), "most-predicted static instructions:\n")
	if !ok {
		t.Fatalf("no -top report in output:\n%s", out)
	}
	type row struct{ index, predicted int }
	var rows []row
	for _, line := range strings.Split(strings.TrimSpace(report), "\n")[1:] {
		f := strings.Fields(line)
		idx, err1 := strconv.Atoi(f[0])
		pred, err2 := strconv.Atoi(f[len(f)-3])
		if err1 != nil || err2 != nil {
			t.Fatalf("unparsable row %q", line)
		}
		rows = append(rows, row{idx, pred})
	}
	ties := 0
	for i := 1; i < len(rows); i++ {
		a, b := rows[i-1], rows[i]
		if a.predicted == b.predicted {
			ties++
		}
		if a.predicted < b.predicted || (a.predicted == b.predicted && a.index > b.index) {
			t.Errorf("row %d (index %d, %d predicted) before row %d (index %d, %d predicted)",
				i-1, a.index, a.predicted, i, b.index, b.predicted)
		}
	}
	if ties == 0 {
		t.Fatalf("no tied rows; the test no longer exercises tie order:\n%s", report)
	}
}
