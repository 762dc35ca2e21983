package main

import (
	"context"
	"time"

	"rvpsim/internal/bpred"
	"rvpsim/internal/core"
	"rvpsim/internal/emu"
	"rvpsim/internal/isa"
	"rvpsim/internal/mem"
	"rvpsim/internal/pipeline"
	"rvpsim/internal/program"
)

// The replay ledger. Each program's committed stream is recorded once
// with emu.StepInto, then the same stream is timed through each layer's
// public calls the way pipeline's run loop makes them: the emulator
// alone, the memory hierarchy on I-line fetches and data accesses, the
// branch predictor on every control transfer, and each value predictor
// on every register write. Sim.Run over the same instructions gives the
// whole; what the four replayed layers do not account for is pipeline
// scheduling's own time.

// ledgerReps is how many times each layer's timed pass repeats; the
// ledger reports the median.
const ledgerReps = 5

// ledgerInput is one program replayed by the ledger, optionally from a
// warmed architectural state.
type ledgerInput struct {
	prog  *program.Program
	warm  *pipeline.WarmState
	insts uint64
}

func (in ledgerInput) newState() (*emu.State, error) {
	if in.warm != nil {
		return in.warm.Fork(in.prog)
	}
	return emu.New(in.prog)
}

// corePredictors are the value-predictor kinds the ledger times, one per
// predictor implementation the figures use.
var corePredictors = []struct {
	name string
	make func() core.Predictor
}{
	{"drvp", func() core.Predictor { return core.MustDynamicRVP(core.DefaultCounterConfig()) }},
	{"lvp", func() core.Predictor { return core.MustLVP(core.DefaultLVPConfig(), "lvp_all") }},
	{"gabbay", func() core.Predictor { return core.MustGabbayRVP(core.DefaultCounterConfig(), false) }},
	{"stride", func() core.Predictor { return core.MustStridePredictor(core.DefaultStrideConfig()) }},
	{"context", func() core.Predictor { return core.MustContextPredictor(core.DefaultContextConfig()) }},
}

// layerRep is one repetition's host time per layer, summed over every
// program of the workload.
type layerRep struct {
	emu, mem, bpred, sim time.Duration
	core                 []time.Duration // per corePredictors entry
}

// ledgerCounts are the layer work counts, identical on every repetition.
type ledgerCounts struct {
	insts, accesses, branches, updates uint64
	condSeen, condMiss                 uint64
	targetLookups, targetMiss          uint64
	stats                              pipeline.Stats // Sim.Run under drvp, summed
}

// ledger is the replay result of one workload.
type ledger struct {
	counts ledgerCounts
	reps   []layerRep
}

func runLedger(inputs []ledgerInput) (ledger, error) {
	var l ledger
	l.reps = make([]layerRep, ledgerReps)
	for i := range l.reps {
		l.reps[i].core = make([]time.Duration, len(corePredictors))
	}
	cfg := pipeline.BaselineConfig()
	sim, err := pipeline.New(cfg)
	if err != nil {
		return l, err
	}
	for _, in := range inputs {
		execs, regs0, err := recordStream(in)
		if err != nil {
			return l, err
		}
		ops, ctis := memOps(execs), controlTransfers(execs)
		c := &l.counts
		c.insts += uint64(len(execs))
		c.accesses += uint64(len(ops))
		c.branches += uint64(len(ctis))
		for rep := range l.reps {
			r := &l.reps[rep]
			d, err := timeEmu(in, len(execs))
			if err != nil {
				return l, err
			}
			r.emu += d
			r.mem += replayMem(cfg.Mem, ops)
			d, bp := replayBpred(cfg.Bpred, ctis)
			r.bpred += d
			for k, cp := range corePredictors {
				d, upd := replayCore(cp.make(), len(in.prog.Insts), regs0, execs)
				r.core[k] += d
				if rep == 0 {
					c.updates += upd
				}
			}
			t0 := time.Now()
			st, err := sim.RunWarmedContext(context.Background(), in.warm, in.prog, corePredictors[0].make(), uint64(len(execs)))
			r.sim += time.Since(t0)
			if err != nil {
				return l, err
			}
			if rep == 0 {
				c.condSeen += bp.CondSeen
				c.condMiss += bp.CondMispred
				c.targetLookups += bp.UncondSeen
				c.targetMiss += bp.TargetMiss + bp.RASWrong
				addStats(&c.stats, st)
			}
		}
	}
	return l, nil
}

// recordStream steps the program's emulator through the input's budget,
// keeping every Exec record and the register file it started from.
func recordStream(in ledgerInput) ([]emu.Exec, [isa.NumRegs]uint64, error) {
	st, err := in.newState()
	if err != nil {
		return nil, [isa.NumRegs]uint64{}, err
	}
	regs0 := st.Regs
	execs := make([]emu.Exec, 0, in.insts)
	var e emu.Exec
	for uint64(len(execs)) < in.insts && st.StepInto(&e) {
		execs = append(execs, e)
		if e.Inst.Op == isa.HALT {
			break
		}
	}
	return execs, regs0, st.Err()
}

// timeEmu steps a fresh copy of the input's state through n instructions.
func timeEmu(in ledgerInput, n int) (time.Duration, error) {
	st, err := in.newState()
	if err != nil {
		return 0, err
	}
	var e emu.Exec
	t0 := time.Now()
	for i := 0; i < n && st.StepInto(&e); i++ {
	}
	return time.Since(t0), st.Err()
}

// memOp is one memory-hierarchy call of the replayed stream.
type memOp struct {
	addr  uint64
	now   int64
	fetch bool // instruction fetch (else data access)
}

// memOps lists the run loop's memory traffic for a stream: an
// instruction fetch whenever the 64-byte fetch line changes and one data
// access per load or store. The instruction index stands in for the
// cycle.
func memOps(execs []emu.Exec) []memOp {
	var ops []memOp
	cur := ^uint64(0)
	for i := range execs {
		e := &execs[i]
		if line := e.PC &^ 63; line != cur {
			ops = append(ops, memOp{e.PC, int64(i), true})
			cur = line
		}
		if e.IsMem {
			ops = append(ops, memOp{e.EA, int64(i), false})
		}
	}
	return ops
}

// replayMem times the memory hierarchy over a stream's memory traffic.
func replayMem(cfg mem.HierarchyConfig, ops []memOp) time.Duration {
	h := mem.MustNewHierarchy(cfg)
	t0 := time.Now()
	for _, op := range ops {
		if op.fetch {
			h.AccessInstAt(op.addr, op.now)
		} else {
			h.AccessDataAt(op.addr, op.now)
		}
	}
	return time.Since(t0)
}

// controlTransfers lists the stream's control-transfer instructions.
func controlTransfers(execs []emu.Exec) []*emu.Exec {
	var ctis []*emu.Exec
	for i := range execs {
		if execs[i].IsCTI {
			ctis = append(ctis, &execs[i])
		}
	}
	return ctis
}

// replayBpred mirrors pipeline.handleCTI's predictor calls for every
// control transfer. It returns the predictor, whose counters hold the
// outcomes.
func replayBpred(cfg bpred.Config, ctis []*emu.Exec) (time.Duration, *bpred.Predictor) {
	bp := bpred.New(cfg)
	t0 := time.Now()
	for _, e := range ctis {
		op, idx := e.Inst.Op, e.Index
		switch {
		case isa.IsCondBranch(op):
			if !bp.UpdateCond(idx, e.Taken, bp.PredictCond(idx)) || !e.Taken {
				continue
			}
			tgt, ok := bp.PredictTarget(op, idx)
			bp.UpdateTarget(op, idx, e.Next, tgt, ok)
		case op == isa.BR, op == isa.JSR:
			if op == isa.JSR || e.Inst.Rd == isa.RRA {
				bp.OnFetchCall(idx + 1)
			}
			tgt, ok := bp.PredictTarget(op, idx)
			bp.UpdateTarget(op, idx, e.Next, tgt, ok)
		case op == isa.RET:
			tgt, ok := bp.PredictTarget(op, idx)
			bp.OnFetchReturn()
			bp.UpdateTarget(op, idx, e.Next, tgt, ok)
		}
	}
	return time.Since(t0), bp
}

// replayCore drives one value predictor's Decide and Commit for every
// register write, resolving the predicted value from a shadow register
// file the way the run loop resolves it from the emulator's.
func replayCore(p core.Predictor, ninsts int, regs [isa.NumRegs]uint64, execs []emu.Exec) (time.Duration, uint64) {
	p.Reset()
	if h, ok := p.(core.SizeHinter); ok {
		h.SizeHint(ninsts)
	}
	var updates uint64
	t0 := time.Now()
	for i := range execs {
		e := &execs[i]
		if !e.WroteRd {
			continue
		}
		dec := p.Decide(e.Index, e.Inst)
		var pv uint64
		switch dec.Kind {
		case core.KindSameReg:
			pv = e.OldDest
		case core.KindOtherReg:
			pv = regs[dec.Reg]
			if dec.Reg == e.Inst.Rd {
				pv = e.OldDest
			}
		case core.KindLastValue, core.KindBuffer:
			pv = dec.Value
		}
		p.Commit(e.Index, e.Inst, pv, e.NewDest)
		regs[e.Inst.Rd] = e.NewDest
		updates++
	}
	return time.Since(t0), updates
}

func addStats(dst *pipeline.Stats, st pipeline.Stats) {
	dst.Committed += st.Committed
	dst.Predicted += st.Predicted
	dst.PredictCorrect += st.PredictCorrect
	dst.PortStarved += st.PortStarved
	dst.IL1Hits += st.IL1Hits
	dst.IL1Misses += st.IL1Misses
	dst.DL1Hits += st.DL1Hits
	dst.DL1Misses += st.DL1Misses
	dst.L2Hits += st.L2Hits
	dst.L2Misses += st.L2Misses
}

// medianDur is the median of one field over the repetitions.
func medianDur(reps []layerRep, f func(layerRep) time.Duration) float64 {
	v := make([]float64, len(reps))
	for i, r := range reps {
		v[i] = float64(f(r))
	}
	return median(v)
}

func median(v []float64) float64 { return quantile(v, 0.5) }

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// metrics renders the ledger's per-layer metrics. Times are medians over
// the repetitions (ns per unit of the layer's work); counts and ratios
// are exact and repeat on every run.
func (l ledger) metrics(m metricSet) {
	c := l.counts
	per := func(d float64, n uint64) float64 {
		if n == 0 {
			return 0
		}
		return d / float64(n)
	}
	emuNs := medianDur(l.reps, func(r layerRep) time.Duration { return r.emu })
	memNs := medianDur(l.reps, func(r layerRep) time.Duration { return r.mem })
	bpNs := medianDur(l.reps, func(r layerRep) time.Duration { return r.bpred })
	simNs := medianDur(l.reps, func(r layerRep) time.Duration { return r.sim })
	m.set("emu.ns_per_inst", per(emuNs, c.insts), "ns")
	m.set("emu.insts", float64(c.insts), "count")
	m.set("mem.ns_per_access", per(memNs, c.accesses), "ns")
	m.set("mem.accesses", float64(c.accesses), "count")
	m.set("mem.l1i_miss_ratio", ratio(c.stats.IL1Misses, c.stats.IL1Hits+c.stats.IL1Misses), "ratio")
	m.set("mem.l1d_miss_ratio", ratio(c.stats.DL1Misses, c.stats.DL1Hits+c.stats.DL1Misses), "ratio")
	m.set("mem.l2_miss_ratio", ratio(c.stats.L2Misses, c.stats.L2Hits+c.stats.L2Misses), "ratio")
	m.set("bpred.ns_per_branch", per(bpNs, c.branches), "ns")
	m.set("bpred.branches", float64(c.branches), "count")
	m.set("bpred.cond_mispredict_ratio", ratio(c.condMiss, c.condSeen), "ratio")
	m.set("bpred.target_miss_ratio", ratio(c.targetMiss, c.targetLookups), "ratio")
	var coreAll, coreDrvp float64
	for k, cp := range corePredictors {
		ns := medianDur(l.reps, func(r layerRep) time.Duration { return r.core[k] })
		if k == 0 {
			coreDrvp = ns
		}
		coreAll += ns
		m.set("core.ns_per_update."+cp.name, per(ns, c.updates/uint64(len(corePredictors))), "ns")
	}
	m.set("core.ns_per_update", per(coreAll, c.updates), "ns")
	m.set("core.updates", float64(c.updates), "count")
	m.set("core.coverage", ratio(c.stats.Predicted, c.stats.Committed), "ratio")
	m.set("core.accuracy", ratio(c.stats.PredictCorrect, c.stats.Predicted), "ratio")
	m.set("pipeline.ns_per_inst", per(simNs, c.insts), "ns")
	m.set("pipeline.self_ns_per_inst", per(simNs-emuNs-memNs-bpNs-coreDrvp, c.insts), "ns")
	m.set("pipeline.port_starved_ratio", ratio(c.stats.PortStarved, c.stats.Predicted+c.stats.PortStarved), "ratio")
}
