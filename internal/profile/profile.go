// Package profile implements the paper's register-reuse profiler
// (Section 5). It runs a program on the functional emulator and measures,
// for every register-writing static instruction:
//
//   - same-register reuse: the result equals the destination register's
//     prior value;
//   - dead/live-register correlation: the result equals the current value
//     of some other register, classified by static liveness at that point;
//   - last-value reuse: the result equals the instruction's own previous
//     result;
//   - any-register reuse, and "register or last value" (Figure 1);
//   - execution frequency, loop criticality inputs, and the primary
//     producer of each correlated register's value (needed by the
//     Section 7.3 register re-allocator).
//
// From the raw profile it derives the four instruction lists the paper's
// compiler model consumes (same / dead / live / last-value) at a given
// predictability threshold, and converts them into core.ReuseHints.
package profile

import (
	"fmt"
	"sort"

	"rvpsim/internal/emu"
	"rvpsim/internal/isa"
	"rvpsim/internal/program"
)

// InstStats is the raw profile of one static instruction.
type InstStats struct {
	Index int
	Inst  isa.Inst

	Execs    uint64
	SameHits uint64 // result == prior value of the destination register
	LastHits uint64 // result == this instruction's previous result
	AnyHits  uint64 // result == some register's current value
	DeadHits uint64 // result == some statically-dead register's value
	OrLVHits uint64 // AnyHits condition or LastHits condition

	// Best correlated register among statically dead candidates and among
	// live candidates, with their hit counts.
	BestDead     isa.Reg
	BestDeadHits uint64
	BestLive     isa.Reg
	BestLiveHits uint64

	// Primary producer (static index) of the value found in BestDead /
	// BestLive, and how often that producer supplied it. -1 when unknown.
	DeadProducer int
	LiveProducer int

	// CritHits counts executions in which this instruction's result was
	// the latest-arriving (chain-height-maximal) input of a consumer — a
	// cheap critical-path profile in the spirit of [15].
	CritHits uint64
}

// Rate helpers. Each returns 0 when the instruction never executed.
func rate(h, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(h) / float64(n)
}

// SameRate is the same-register reuse fraction.
func (s *InstStats) SameRate() float64 { return rate(s.SameHits, s.Execs) }

// LastRate is the last-value reuse fraction.
func (s *InstStats) LastRate() float64 { return rate(s.LastHits, s.Execs) }

// AnyRate is the any-register reuse fraction.
func (s *InstStats) AnyRate() float64 { return rate(s.AnyHits, s.Execs) }

// DeadRate is the any-dead-register reuse fraction.
func (s *InstStats) DeadRate() float64 { return rate(s.DeadHits, s.Execs) }

// OrLVRate is the register-or-last-value fraction (Figure 1, last bar).
func (s *InstStats) OrLVRate() float64 { return rate(s.OrLVHits, s.Execs) }

// BestDeadRate is the best single dead register's hit fraction.
func (s *InstStats) BestDeadRate() float64 { return rate(s.BestDeadHits, s.Execs) }

// BestLiveRate is the best single live register's hit fraction.
func (s *InstStats) BestLiveRate() float64 { return rate(s.BestLiveHits, s.Execs) }

// Profile is the result of profiling one program.
type Profile struct {
	Prog  *program.Program
	Insts map[int]*InstStats // keyed by static instruction index
	Total uint64             // committed instructions profiled
	Loads uint64             // committed loads
}

// Options configures the profiler.
type Options struct {
	MaxInsts uint64 // committed-instruction budget (0 = to completion)
	// MinExecs filters instructions with too few executions from lists.
	MinExecs uint64
}

// Run profiles prog. It executes the program twice: once to gather reuse
// statistics and select correlated registers, once to attribute primary
// producers for the selected registers. Both passes step one reused
// execution record and keep their per-instruction state in slices indexed
// by static instruction, so neither allocates per executed instruction.
func Run(prog *program.Program, opts Options) (*Profile, error) {
	if opts.MinExecs == 0 {
		opts.MinExecs = 16
	}
	live, err := newLivenessIndex(prog)
	if err != nil {
		return nil, err
	}

	p := &Profile{Prog: prog, Insts: make(map[int]*InstStats)}
	n := len(prog.Insts)
	stats := make([]*InstStats, n)
	regHits := make([]*[isa.NumRegs]uint64, n) // per-inst per-register

	// Pass 1: reuse counting.
	st, err := emu.New(prog)
	if err != nil {
		return nil, err
	}
	lastVal := make([]uint64, n)
	lastSeen := make([]bool, n)
	// Chain heights for the critical-path profile.
	var height [isa.NumRegs]uint64
	var producerIdx [isa.NumRegs]int
	for i := range producerIdx {
		producerIdx[i] = -1
	}

	var e emu.Exec
	srcs := make([]isa.Reg, 0, 2)
	for opts.MaxInsts == 0 || p.Total < opts.MaxInsts {
		if !st.StepInto(&e) {
			break
		}
		p.Total++
		if isa.IsLoad(e.Inst.Op) {
			p.Loads++
		}

		// Critical-path credit: the maximal-height source's producer.
		var h uint64
		bestSrc := -1
		srcs = e.Inst.Sources(srcs[:0])
		for _, r := range srcs {
			if r.IsZero() {
				continue
			}
			if height[r] >= h {
				h = height[r]
				bestSrc = producerIdx[r]
			}
		}
		if bestSrc >= 0 {
			if bs := stats[bestSrc]; bs != nil {
				bs.CritHits++
			}
		}

		if !e.WroteRd {
			continue
		}
		is := stats[e.Index]
		if is == nil {
			is = &InstStats{Index: e.Index, Inst: e.Inst, DeadProducer: -1, LiveProducer: -1}
			stats[e.Index] = is
			p.Insts[e.Index] = is
			regHits[e.Index] = &[isa.NumRegs]uint64{}
		}
		is.Execs++
		v := e.NewDest
		wasLast := lastSeen[e.Index] && lastVal[e.Index] == v
		if v == e.OldDest {
			is.SameHits++
		}
		if wasLast {
			is.LastHits++
		}
		lastVal[e.Index] = v
		lastSeen[e.Index] = true

		// The step wrote only Rd, so every other register still holds the
		// value it had when the instruction executed.
		any, dead := false, false
		hits := regHits[e.Index]
		for r := 0; r < isa.NumRegs; r++ {
			reg := isa.Reg(r)
			if reg.IsZero() || reg == e.Inst.Rd {
				continue
			}
			if st.Regs[r] == v {
				hits[r]++
				any = true
				if live.deadBefore(e.Index, reg) {
					dead = true
				}
			}
		}
		if any || v == e.OldDest {
			is.AnyHits++
		}
		if dead {
			is.DeadHits++
		}
		// Figure 1's last bar: the value is in some register now, or was
		// this instruction's previous result.
		if any || v == e.OldDest || wasLast {
			is.OrLVHits++
		}

		height[e.Inst.Rd] = h + 1
		producerIdx[e.Inst.Rd] = e.Index
	}

	// Select best dead and live correlated registers per instruction.
	for idx, is := range stats {
		if is == nil {
			continue
		}
		hits := regHits[idx]
		for r := 0; r < isa.NumRegs; r++ {
			reg := isa.Reg(r)
			if reg.IsZero() || reg == is.Inst.Rd || hits[r] == 0 {
				continue
			}
			if live.deadBefore(idx, reg) {
				if hits[r] > is.BestDeadHits {
					is.BestDeadHits = hits[r]
					is.BestDead = reg
				}
			} else if hits[r] > is.BestLiveHits {
				is.BestLiveHits = hits[r]
				is.BestLive = reg
			}
		}
	}

	// Pass 2: primary producers of the selected correlated registers.
	if err := p.attributeProducers(stats, opts); err != nil {
		return nil, err
	}
	return p, nil
}

// attributeProducers re-runs the program, tracking the last static writer
// of each architectural register, and attributes the majority producer of
// each instruction's best dead/live correlated register. stats is pass 1's
// profile indexed by static instruction.
func (p *Profile) attributeProducers(stats []*InstStats, opts Options) error {
	// counts[2*i] and counts[2*i+1] count the producers of instruction
	// i's best dead and best live register values.
	counts := make([]map[int]uint64, 2*len(stats))
	st, err := emu.New(p.Prog)
	if err != nil {
		return err
	}
	var lastWriter [isa.NumRegs]int
	for i := range lastWriter {
		lastWriter[i] = -1
	}
	var e emu.Exec
	// credit counts the last writer of reg when reg holds the value just
	// written. A best correlated register is never the destination, so its
	// value after the step is its value before it.
	credit := func(reg isa.Reg, slot int) {
		if reg.IsZero() || st.Regs[reg] != e.NewDest {
			return
		}
		w := lastWriter[reg]
		if w < 0 {
			return
		}
		m := counts[slot]
		if m == nil {
			m = make(map[int]uint64)
			counts[slot] = m
		}
		m[w]++
	}
	for n := uint64(0); opts.MaxInsts == 0 || n < opts.MaxInsts; n++ {
		if !st.StepInto(&e) {
			break
		}
		if !e.WroteRd {
			continue
		}
		is := stats[e.Index]
		if is == nil {
			continue
		}
		if is.BestDeadHits > 0 {
			credit(is.BestDead, 2*e.Index)
		}
		if is.BestLiveHits > 0 {
			credit(is.BestLive, 2*e.Index+1)
		}
		lastWriter[e.Inst.Rd] = e.Index
	}
	majority := func(m map[int]uint64) int {
		best, bestN := -1, uint64(0)
		// Deterministic tie-break by smallest index.
		idxs := make([]int, 0, len(m))
		for i := range m {
			idxs = append(idxs, i)
		}
		sort.Ints(idxs)
		for _, i := range idxs {
			if m[i] > bestN {
				best, bestN = i, m[i]
			}
		}
		return best
	}
	for idx, is := range stats {
		if is == nil {
			continue
		}
		if m := counts[2*idx]; m != nil {
			is.DeadProducer = majority(m)
		}
		if m := counts[2*idx+1]; m != nil {
			is.LiveProducer = majority(m)
		}
	}
	return nil
}

// livenessIndex precomputes per-instruction liveness for the whole
// program (one CFG per procedure; a synthetic whole-program procedure
// when none are declared).
type livenessIndex struct {
	byInst []*program.Liveness
}

func buildLiveness(prog *program.Program) ([]*program.Liveness, []program.Procedure) {
	procs := prog.Procs
	if len(procs) == 0 {
		procs = []program.Procedure{{Name: "<all>", Start: 0, End: len(prog.Insts)}}
	}
	out := make([]*program.Liveness, len(prog.Insts))
	for i := range procs {
		g := program.BuildCFG(prog, &procs[i])
		l := program.ComputeLiveness(prog, g)
		for j := procs[i].Start; j < procs[i].End; j++ {
			out[j] = l
		}
	}
	return out, procs
}

func newLivenessIndex(prog *program.Program) (*livenessIndex, error) {
	if len(prog.Insts) == 0 {
		return nil, fmt.Errorf("profile: empty program")
	}
	li, _ := buildLiveness(prog)
	return &livenessIndex{byInst: li}, nil
}

// deadBefore reports whether reg's value is statically dead immediately
// before instruction idx executes.
func (l *livenessIndex) deadBefore(idx int, reg isa.Reg) bool {
	lv := l.byInst[idx]
	if lv == nil {
		return false
	}
	return !lv.LiveIn(idx).Has(reg)
}
