package rvpsim_test

import (
	"context"
	"fmt"
	"log"

	"rvpsim"
)

// Example demonstrates the core API end to end: assemble a program whose
// loads exhibit register-value reuse, then compare no-prediction against
// dynamic RVP. The simulator is fully deterministic, so the output is
// exact.
func Example() {
	prog, err := rvpsim.Assemble("demo", `
.text
.proc main
main:
        li      r9, 2000
outer:
        lda     r2, table
        li      r1, 8
loop:
        ldq     r3, 0(r2)           ; always loads 7: same-register reuse
        mul     r4, r3, r3
        add     r5, r5, r4
        addi    r2, r2, 8
        subi    r1, r1, 1
        bne     r1, loop
        subi    r9, r9, 1
        bne     r9, outer
        halt
.endproc
.data
.org 0x100000
table:  .quad 7, 7, 7, 7, 7, 7, 7, 7
`)
	if err != nil {
		log.Fatal(err)
	}
	ctx, cfg := context.Background(), rvpsim.BaselineConfig()
	opts := rvpsim.RunOptions{MaxInsts: 50_000}
	base, err := rvpsim.Run(ctx, prog, cfg, rvpsim.NoPrediction(), opts)
	if err != nil {
		log.Fatal(err)
	}
	rvp, err := rvpsim.Run(ctx, prog, cfg, rvpsim.DynamicRVP(), opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("coverage %.1f%% accuracy %.1f%%\n", 100*rvp.Coverage(), 100*rvp.Accuracy())
	fmt.Printf("speedup %.2f\n", float64(base.Cycles)/float64(rvp.Cycles))
	// Output:
	// coverage 30.7% accuracy 100.0%
	// speedup 1.20
}
