// Quickstart: assemble a tiny program, run it with and without register
// value prediction, and print the speedup — the smallest end-to-end use
// of the public API.
package main

import (
	"context"
	"fmt"
	"log"

	"rvpsim"
)

// src sums a table whose entries are mostly the same value: the load's
// result is usually already in its destination register, so dynamic RVP
// predicts it and dependent instructions issue without waiting.
const src = `
.text
.proc main
main:
        li      r9, 30000           ; outer repetitions
outer:
        lda     r2, table
        li      r1, 64
        clr     r4
loop:
        ldq     r3, 0(r2)           ; usually loads the same value
        mul     r5, r3, r3          ; dependent work
        add     r4, r4, r5
        addi    r2, r2, 8
        subi    r1, r1, 1
        bne     r1, loop
        subi    r9, r9, 1
        bne     r9, outer
        mov     r0, r4
        halt
.endproc

.data
.org 0x100000
table:
        .quad 7, 7, 7, 7, 7, 7, 7, 7
        .quad 7, 7, 7, 7, 7, 7, 7, 7
        .quad 7, 7, 7, 7, 7, 7, 7, 7
        .quad 7, 7, 7, 7, 7, 7, 7, 7
        .quad 7, 7, 7, 7, 7, 7, 7, 7
        .quad 7, 7, 7, 7, 7, 7, 7, 7
        .quad 7, 7, 7, 7, 7, 7, 7, 7
        .quad 7, 7, 7, 7, 7, 7, 7, 9
`

func main() {
	prog, err := rvpsim.Assemble("quickstart", src)
	if err != nil {
		log.Fatal(err)
	}
	cfg := rvpsim.BaselineConfig()
	const budget = 500_000
	ctx, opts := context.Background(), rvpsim.RunOptions{MaxInsts: budget}

	base, err := rvpsim.Run(ctx, prog, cfg, rvpsim.NoPrediction(), opts)
	if err != nil {
		log.Fatal(err)
	}
	rvp, err := rvpsim.Run(ctx, prog, cfg, rvpsim.DynamicRVP(), opts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("no prediction: %8d cycles  (IPC %.3f)\n", base.Cycles, base.IPC())
	fmt.Printf("dynamic RVP:   %8d cycles  (IPC %.3f)\n", rvp.Cycles, rvp.IPC())
	fmt.Printf("predicted %.1f%% of instructions at %.1f%% accuracy\n",
		100*rvp.Coverage(), 100*rvp.Accuracy())
	fmt.Printf("speedup: %.3f\n", float64(base.Cycles)/float64(rvp.Cycles))
}
