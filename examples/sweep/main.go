// Sweep runs the ablations DESIGN.md calls out: confidence-counter
// threshold, tagged vs untagged RVP counters (the paper reports untagged
// slightly wins), LVP table size (the loop-bigger-than-table interference
// effect), and the extra-read-port limit for non-load predictions.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"rvpsim"
)

const budget = 500_000

func run(prog *rvpsim.Program, cfg rvpsim.Config, pred rvpsim.Predictor) rvpsim.Stats {
	st, err := rvpsim.Run(context.Background(), prog, cfg, pred, rvpsim.RunOptions{MaxInsts: budget})
	if err != nil {
		log.Fatal(err)
	}
	return st
}

func must(p rvpsim.Predictor, err error) rvpsim.Predictor {
	if err != nil {
		log.Fatal(err)
	}
	return p
}

// bigLoopSrc generates a loop body with 1024 unrolled load+use pairs, all
// loading the same constant: more static predictable instructions than a
// 1K-entry value table can hold.
func bigLoopSrc() string {
	var b strings.Builder
	b.WriteString(".text\n.proc main\nmain:\n        li r9, 400\n        lda r2, table\nouter:\n")
	for i := 0; i < 1024; i++ {
		fmt.Fprintf(&b, "        ldq r%d, %d(r2)\n", 3+i%4, (i%8)*8)
		fmt.Fprintf(&b, "        add r7, r7, r%d\n", 3+i%4)
	}
	b.WriteString("        subi r9, r9, 1\n        bne r9, outer\n        halt\n.endproc\n")
	b.WriteString(".data\n.org 0x100000\ntable: .quad 5, 5, 5, 5, 5, 5, 5, 5\n")
	return b.String()
}

func main() {
	prog, err := rvpsim.Workload("m88ksim")
	if err != nil {
		log.Fatal(err)
	}
	cfg := rvpsim.BaselineConfig()
	base := run(prog, cfg, rvpsim.NoPrediction())

	fmt.Println("== confidence threshold sweep (dynamic RVP, m88ksim) ==")
	for _, th := range []uint8{1, 3, 5, 7} {
		cc := rvpsim.DefaultCounterConfig()
		cc.Threshold = th
		st := run(prog, cfg, must(rvpsim.NewDynamicRVPWith(cc)))
		fmt.Printf("  threshold %d: speedup %.3f, coverage %4.1f%%, accuracy %5.1f%%\n",
			th, float64(base.Cycles)/float64(st.Cycles), 100*st.Coverage(), 100*st.Accuracy())
	}

	// The paper's interference argument needs a loop with more static
	// predictable instructions than the tables have entries: an LVP value
	// file "becomes virtually useless for a loop that is larger than the
	// value prediction table", while untagged RVP counters survive on
	// positive interference. Build a big unrolled loop to show it.
	big, err := rvpsim.Assemble("bigloop", bigLoopSrc())
	if err != nil {
		log.Fatal(err)
	}
	bigBase := run(big, cfg, rvpsim.NoPrediction())

	fmt.Println("== tagged vs untagged RVP counters (2K-instruction loop) ==")
	for _, tagged := range []bool{false, true} {
		cc := rvpsim.DefaultCounterConfig()
		cc.Tagged = tagged
		st := run(big, cfg, must(rvpsim.NewDynamicRVPWith(cc)))
		fmt.Printf("  tagged=%-5v speedup %.3f, coverage %4.1f%%\n",
			tagged, float64(bigBase.Cycles)/float64(st.Cycles), 100*st.Coverage())
	}

	fmt.Println("== LVP table size sweep (2K-instruction loop) ==")
	for _, entries := range []int{256, 1024, 4096} {
		lc := rvpsim.DefaultLVPConfig()
		lc.Entries = entries
		st := run(big, cfg, must(rvpsim.NewLVPWith(lc)))
		fmt.Printf("  %4d entries: speedup %.3f, coverage %4.1f%%\n",
			entries, float64(bigBase.Cycles)/float64(st.Cycles), 100*st.Coverage())
	}

	fmt.Println("== extra read ports for non-load RVP predictions ==")
	for _, ports := range []int{1, 2, 4, 0} {
		pcfg := cfg
		pcfg.PredictPorts = ports
		st := run(prog, pcfg, rvpsim.DynamicRVP())
		label := fmt.Sprint(ports)
		if ports == 0 {
			label = "unbounded"
		}
		fmt.Printf("  ports %-9s speedup %.3f, coverage %4.1f%%, starved %d\n",
			label, float64(base.Cycles)/float64(st.Cycles), 100*st.Coverage(), st.PortStarved)
	}
}
