package main

import (
	"testing"

	"rvpsim/internal/emu"
)

// TestBigcodeShape: over several seeds every generated program
// assembles, halts, and overruns all three structures it is meant to
// stress.
func TestBigcodeShape(t *testing.T) {
	want := bigcodeTargets()
	for _, seed := range []uint64{1, 2, 7, 42, 31337} {
		progs, _, err := bigcodePrograms(seed)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range progs {
			got := shapeOf(p)
			if got.codeBytes <= want.codeBytes {
				t.Errorf("seed %d program %d: code %d bytes, want > %d (3x L1I)", seed, i, got.codeBytes, want.codeBytes)
			}
			if got.valueWriters <= want.valueWriters {
				t.Errorf("seed %d program %d: %d value writers, want > %d", seed, i, got.valueWriters, want.valueWriters)
			}
			if got.branchSites <= want.branchSites {
				t.Errorf("seed %d program %d: %d branch sites, want > %d", seed, i, got.branchSites, want.branchSites)
			}
			st, err := emu.New(p)
			if err != nil {
				t.Fatal(err)
			}
			n := st.Run(20_000_000)
			if st.Err() != nil || !st.Halted {
				t.Fatalf("seed %d program %d: halted=%v after %d insts, err=%v", seed, i, st.Halted, n, st.Err())
			}
			if n <= bigcodeInsts {
				t.Errorf("seed %d program %d halts after %d insts, inside the %d-inst cell budget", seed, i, n, bigcodeInsts)
			}
		}
	}
}

// TestBigcodeDeterministic: a seed fixes the programs; another seed
// changes them.
func TestBigcodeDeterministic(t *testing.T) {
	if bigcodeSource(5, 0) != bigcodeSource(5, 0) {
		t.Fatal("same seed, different source")
	}
	if bigcodeSource(5, 0) == bigcodeSource(6, 0) || bigcodeSource(5, 0) == bigcodeSource(5, 1) {
		t.Fatal("different seed or program index, same source")
	}
}
