package main

import (
	"fmt"
	"strings"
	"time"

	"rvpsim/internal/asm"
	"rvpsim/internal/core"
	"rvpsim/internal/isa"
	"rvpsim/internal/obs"
	"rvpsim/internal/pipeline"
	"rvpsim/internal/program"
)

// The bigcode workload: programs generated from the seed whose code,
// value-writer and branch-site counts overrun the structures the nine
// paper kernels (34..83 static instructions) never fill — the 32 KB L1I,
// the 1K-entry value-predictor tables and the 256-entry BTB. Every loop
// is counted, so each program halts by construction.
const (
	bigcodeBlocks    = 3000     // straight-line blocks in the outer loop body
	bigcodeOuter     = 64       // outer-loop trip count
	bigcodeDataWords = 8192     // 64 KB data buffer: twice the L1D
	bigcodeDataBase  = 0x400000 // data segment address, far above the code
	// bigcodeInsts is each cell's committed-instruction budget. One outer
	// iteration commits ~25K instructions, so a cell sweeps the whole
	// body about 16 times and stops well before the program halts.
	bigcodeInsts = 400_000
)

// bigcodePredictors are the value predictors of the four bigcode cells:
// program i runs under predictor i.
var bigcodePredictors = []struct {
	name string
	make func() core.Predictor
}{
	{"no_predict", func() core.Predictor { return core.NoPredictor{} }},
	{"drvp_all", func() core.Predictor {
		return core.MustDynamicRVP(core.DefaultCounterConfig(), core.WithName("drvp_all"))
	}},
	{"lvp_all", func() core.Predictor { return core.MustLVP(core.DefaultLVPConfig(), "lvp_all") }},
	{"Grp_all", func() core.Predictor { return core.MustGabbayRVP(core.DefaultCounterConfig(), false) }},
}

// bigcodeParams names every constant that shapes the workload; the
// recorded reference digests are valid only for these.
func bigcodeParams() string {
	return fmt.Sprintf("blocks=%d outer=%d data=%d insts=%d predictors=%d",
		bigcodeBlocks, bigcodeOuter, bigcodeDataWords, bigcodeInsts, len(bigcodePredictors))
}

// splitmix is SplitMix64: a tiny generator whose output is fixed by its
// definition, so a seed yields the same programs on every Go release.
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *splitmix) intn(n int) int { return int(r.next() % uint64(n)) }

// Register roles in generated code. r9 counts outer iterations, r20
// holds the data base, r21 is the branch-condition scratch, r22 counts
// inner-loop trips; the rest carry values.
var bigcodeValueRegs = []string{
	"r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7", "r8",
	"r10", "r11", "r12", "r13", "r14", "r15", "r16", "r17", "r18", "r19",
	"r23", "r24", "r25",
}

type codegen struct {
	r *splitmix
	b strings.Builder
}

func (g *codegen) reg() string { return bigcodeValueRegs[g.r.intn(len(bigcodeValueRegs))] }

func (g *codegen) line(format string, args ...any) {
	g.b.WriteByte('\t')
	fmt.Fprintf(&g.b, format, args...)
	g.b.WriteByte('\n')
}

// alu emits n register-writing arithmetic instructions.
func (g *codegen) alu(n int) {
	for i := 0; i < n; i++ {
		switch g.r.intn(8) {
		case 0:
			g.line("add %s, %s, %s", g.reg(), g.reg(), g.reg())
		case 1:
			g.line("sub %s, %s, %s", g.reg(), g.reg(), g.reg())
		case 2:
			g.line("xor %s, %s, %s", g.reg(), g.reg(), g.reg())
		case 3:
			g.line("addi %s, %s, %d", g.reg(), g.reg(), g.r.intn(64)+1)
		case 4:
			g.line("andi %s, %s, %d", g.reg(), g.reg(), g.r.intn(1024))
		case 5:
			g.line("srli %s, %s, %d", g.reg(), g.reg(), g.r.intn(8)+1)
		case 6:
			g.line("mul %s, %s, %s", g.reg(), g.reg(), g.reg())
		default:
			g.line("li %s, %d", g.reg(), g.r.intn(256))
		}
	}
}

// mem emits n loads and stores into the data buffer.
func (g *codegen) mem(n int) {
	for i := 0; i < n; i++ {
		off := 8 * g.r.intn(bigcodeDataWords)
		if g.r.intn(3) == 0 {
			g.line("stq %s, %d(r20)", g.reg(), off)
		} else {
			g.line("ldq %s, %d(r20)", g.reg(), off)
		}
	}
}

// bigcodeSource generates the assembly text of program i for a seed.
func bigcodeSource(seed uint64, i int) string {
	g := &codegen{r: &splitmix{s: seed*0x2545f4914f6cdd1d + uint64(i+1)*0x9e3779b97f4a7c15}}
	g.b.WriteString(".text\n.proc main\nmain:\n")
	g.line("lda r20, buf")
	g.line("li r9, %d", bigcodeOuter)
	for _, reg := range bigcodeValueRegs {
		g.line("li %s, %d", reg, g.r.intn(1000)+1)
	}
	g.b.WriteString("outer:\n")
	for blk := 0; blk < bigcodeBlocks; blk++ {
		switch g.r.intn(4) {
		case 0:
			g.alu(4 + g.r.intn(7))
		case 1:
			g.mem(2 + g.r.intn(5))
		case 2: // forward branch on a bit pattern of the outer counter
			g.line("andi r21, r9, %d", 1+g.r.intn(7))
			if g.r.intn(2) == 0 {
				g.line("beq r21, s%d", blk)
			} else {
				g.line("bne r21, s%d", blk)
			}
			g.alu(2 + g.r.intn(4))
			fmt.Fprintf(&g.b, "s%d:\n", blk)
		default: // short counted inner loop
			g.line("li r22, %d", 2+g.r.intn(4))
			fmt.Fprintf(&g.b, "l%d:\n", blk)
			g.alu(1 + g.r.intn(3))
			g.mem(1)
			g.line("subi r22, r22, 1")
			g.line("bne r22, l%d", blk)
		}
	}
	g.line("subi r9, r9, 1")
	g.line("bne r9, outer")
	g.line("halt")
	g.b.WriteString(".endproc\n")
	fmt.Fprintf(&g.b, ".data\n.org 0x%x\nbuf:\n\t.space %d\n", bigcodeDataBase, bigcodeDataWords)
	return g.b.String()
}

// bigcodePrograms generates and assembles the seed's programs, one per
// predictor, and reports the time spent in asm.Assemble alone.
func bigcodePrograms(seed uint64) ([]*program.Program, time.Duration, error) {
	progs := make([]*program.Program, len(bigcodePredictors))
	var asmTime time.Duration
	for i := range progs {
		src := bigcodeSource(seed, i)
		t0 := time.Now()
		p, err := asm.Assemble(fmt.Sprintf("bigcode%d", i), src, asm.Options{})
		asmTime += time.Since(t0)
		if err != nil {
			return nil, 0, fmt.Errorf("bigcode seed %d program %d: %w", seed, i, err)
		}
		progs[i] = p
	}
	return progs, asmTime, nil
}

// codeShape counts what the size targets are stated in.
type codeShape struct {
	codeBytes    int // static code footprint
	valueWriters int // static instructions that write a register
	branchSites  int // static control-transfer instructions
}

func shapeOf(p *program.Program) codeShape {
	s := codeShape{codeBytes: len(p.Insts) * isa.InstBytes}
	for _, in := range p.Insts {
		if in.WritesReg() {
			s.valueWriters++
		}
		if isa.IsCondBranch(in.Op) || isa.IsUncondCTI(in.Op) {
			s.branchSites++
		}
	}
	return s
}

// bigcodeTargets are the structure sizes every generated program must
// overrun: the L1I in bytes (several times over), the value-predictor
// table entries and the BTB entries of the baseline machine.
func bigcodeTargets() codeShape {
	cfg := pipeline.BaselineConfig()
	return codeShape{
		codeBytes:    3 * cfg.Mem.L1I.SizeBytes,
		valueWriters: core.DefaultCounterConfig().Entries,
		branchSites:  cfg.Bpred.BTBEntries,
	}
}

// bigcodeBench runs the bigcode workload for one seed.
type bigcodeBench struct {
	seed     uint64
	ref      bigcodeRef
	asmTimes []float64
	first    []string // the first pass's digests; every pass must repeat them
}

func (b *bigcodeBench) setup(tr *obs.Tracer) (func() pass, error) {
	progs, asmTime, err := bigcodePrograms(b.seed)
	if err != nil {
		return nil, err
	}
	preds := make([]core.Predictor, len(bigcodePredictors))
	for i, p := range bigcodePredictors {
		preds[i] = p.make()
	}
	sim, err := pipeline.New(pipeline.BaselineConfig())
	if err != nil {
		return nil, err
	}
	b.asmTimes = append(b.asmTimes, asmTime.Seconds())
	return func() pass { return b.run(tr, sim, progs, preds) }, nil
}

// run simulates program i under predictor i, serially on one goroutine.
func (b *bigcodeBench) run(tr *obs.Tracer, sim *pipeline.Sim, progs []*program.Program, preds []core.Predictor) pass {
	p := pass{start: time.Now()}
	digests := make([]string, len(progs))
	for i, prog := range progs {
		t0 := time.Now()
		st, err := sim.Run(prog, preds[i], bigcodeInsts)
		if tr != nil {
			tr.Record(obs.SpanContext{}, "cell:"+prog.Name+"/"+preds[i].Name(), t0, time.Since(t0), nil)
		}
		p.attempted++
		if err != nil {
			p.failed++
			p.problems = append(p.problems, fmt.Sprintf("bigcode cell %d: %v", i, err))
			continue
		}
		p.cells++
		p.committed += st.Committed
		digests[i] = statsDigest(st)
	}
	p.wall = time.Since(p.start)
	f, _, problems := checkBigcode(b.ref, b.seed, digests)
	if b.first == nil {
		b.first = digests
	}
	for i := range digests {
		if digests[i] != b.first[i] {
			f++
			problems = append(problems, fmt.Sprintf("bigcode cell %d: stats digest %s differs from the first pass's %s", i, digests[i], b.first[i]))
		}
	}
	p.failed = min(p.failed+f, p.attempted)
	p.problems = append(p.problems, problems...)
	return p
}

// finish checks a seed with no recorded reference in lockstep against
// the emulator; a recorded seed was already checked every pass.
func (b *bigcodeBench) finish() (int64, []string) {
	if _, known, _ := checkBigcode(b.ref, b.seed, nil); known {
		return 0, nil
	}
	progs, _, err := bigcodePrograms(b.seed)
	if err != nil {
		return int64(len(bigcodePredictors)), []string{err.Error()}
	}
	return lockstepCheck(progs)
}

func (b *bigcodeBench) layers(m metricSet, traced []pass) error {
	progs, _, err := bigcodePrograms(b.seed)
	if err != nil {
		return err
	}
	m.set("pipeline.cells", float64(len(progs)), "count")
	m.set("asm.assemble_s", median(b.asmTimes), "s")
	var inputs []ledgerInput
	for _, p := range progs {
		inputs = append(inputs, ledgerInput{prog: p, insts: bigcodeInsts})
	}
	l, err := runLedger(inputs)
	if err != nil {
		return err
	}
	l.metrics(m)
	return nil
}
