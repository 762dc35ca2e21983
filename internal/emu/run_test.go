package emu_test

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"rvpsim/internal/emu"
	"rvpsim/internal/isa"
	"rvpsim/internal/program"
	"rvpsim/internal/progtest"
	"rvpsim/internal/workloads"
)

// stepN calls StepInto n times (until it first fails when n == 0) and
// returns how many calls succeeded. It keeps calling after a failure:
// a halted or failed state must stay exactly as it is.
func stepN(s *emu.State, n uint64) uint64 {
	var e emu.Exec
	var done uint64
	for k := uint64(0); n == 0 || k < n; k++ {
		if !s.StepInto(&e) {
			if n == 0 {
				break
			}
			continue
		}
		done++
	}
	return done
}

// sameState reports how two states differ, or "" when their registers,
// PC, count, halt flag, error text and memory image are all equal.
func sameState(a, b *emu.State) string {
	switch {
	case a.Regs != b.Regs:
		return fmt.Sprintf("registers differ:\n%v\n%v", a.Regs, b.Regs)
	case a.PC != b.PC:
		return fmt.Sprintf("pc %d vs %d", a.PC, b.PC)
	case a.Count != b.Count:
		return fmt.Sprintf("count %d vs %d", a.Count, b.Count)
	case a.Halted != b.Halted:
		return fmt.Sprintf("halted %v vs %v", a.Halted, b.Halted)
	case errText(a.Err()) != errText(b.Err()):
		return fmt.Sprintf("err %q vs %q", errText(a.Err()), errText(b.Err()))
	case !reflect.DeepEqual(a.Snapshot().Mem, b.Snapshot().Mem):
		return "memory images differ"
	}
	return ""
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkRunMatchesStep runs the budgets in sequence on two states built by
// mk, one through Run and one through StepInto, and fails on the first
// difference in the instructions counted or the state left behind.
func checkRunMatchesStep(t testing.TB, name string, mk func() *emu.State, budgets ...uint64) {
	t.Helper()
	ran, stepped := mk(), mk()
	for _, n := range budgets {
		got, want := ran.Run(n), stepN(stepped, n)
		if got != want {
			t.Fatalf("%s: Run(%d) executed %d, StepInto %d", name, n, got, want)
		}
		if diff := sameState(ran, stepped); diff != "" {
			t.Fatalf("%s: after Run(%d): %s", name, n, diff)
		}
	}
}

// TestRunMatchesStep checks that the record-free fast-forward leaves
// exactly the state that stepping one record at a time leaves, on the
// nine workloads (which run far longer than these budgets) and on random
// programs run mid-loop, to HALT and past it.
func TestRunMatchesStep(t *testing.T) {
	for _, w := range workloads.All() {
		p, err := workloads.ByName(w.Name)
		if err != nil {
			t.Fatal(err)
		}
		checkRunMatchesStep(t, w.Name, func() *emu.State { return emu.MustNew(p) },
			1, 7, 12_345, 250_000)
	}
	for seed := uint64(1); seed <= 40; seed++ {
		p := progtest.Random(seed)
		total := emu.MustNew(p).Run(0)
		mk := func() *emu.State { return emu.MustNew(p) }
		name := p.Name
		checkRunMatchesStep(t, name+"/to-halt", mk, total)
		checkRunMatchesStep(t, name+"/mid", mk, total/3, 1, total/2)
		checkRunMatchesStep(t, name+"/before-halt", mk, total-1, 1, 1)
		checkRunMatchesStep(t, name+"/past-halt", mk, total+5, 3)
		checkRunMatchesStep(t, name+"/unlimited", mk, 0, 0)
	}
}

// asProgram wraps hand-built instructions in a program at the default
// code base, with no data.
func asProgram(name string, insts ...isa.Inst) *program.Program {
	return &program.Program{
		Name:     name,
		Insts:    insts,
		CodeBase: program.DefaultCodeBase,
		StackTop: program.DefaultStackTop,
	}
}

// TestRunMatchesStepErrors drives each execution error through both
// drivers and checks they stop at the same state with the same message.
func TestRunMatchesStepErrors(t *testing.T) {
	const bad = 0x7000000 // an address far outside every program below
	cases := []struct {
		name string
		mk   func() *emu.State
		want string
	}{
		{"jsr to a bad index", func() *emu.State {
			return emu.MustNew(asProgram("jsr",
				isa.Inst{Op: isa.LDA, Rd: 1, Ra: isa.RZero, Imm: bad},
				isa.Inst{Op: isa.JSR, Rd: isa.RRA, Ra: 1},
				isa.Inst{Op: isa.HALT}))
		}, "emu: control transfer from 1 to invalid index"},
		{"ret to a bad index", func() *emu.State {
			return emu.MustNew(asProgram("ret",
				isa.Inst{Op: isa.LDA, Rd: isa.RRA, Ra: isa.RZero, Imm: -8},
				isa.Inst{Op: isa.RET, Ra: isa.RRA},
				isa.Inst{Op: isa.HALT}))
		}, "emu: control transfer from 1 to invalid index"},
		{"branch to an invalid target", func() *emu.State {
			return emu.MustNew(asProgram("br",
				isa.Inst{Op: isa.ADDI, Rd: 1, Ra: isa.RZero, Imm: 1},
				isa.Inst{Op: isa.BNE, Ra: 1, Imm: 99},
				isa.Inst{Op: isa.HALT}))
		}, "emu: control transfer from 1 to invalid index 99"},
		{"unknown opcode", func() *emu.State {
			// New refuses to encode an unknown opcode, so restore a valid
			// program's snapshot under a damaged copy of it.
			p := asProgram("op", isa.Inst{Op: isa.NOP}, isa.Inst{Op: isa.NOP}, isa.Inst{Op: isa.HALT})
			q := p.Clone()
			q.Insts[1].Op = isa.Op(200)
			st, err := emu.Restore(q, emu.MustNew(p).Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			return st
		}, "emu: unimplemented opcode op(200) at 1"},
		{"pc out of range", func() *emu.State {
			st := emu.MustNew(asProgram("pc", isa.Inst{Op: isa.HALT}))
			st.PC = 5
			return st
		}, "emu: pc 5 out of range"},
	}
	for _, c := range cases {
		for _, budgets := range [][]uint64{{1, 1, 1, 1}, {2, 1}, {10}, {0}} {
			checkRunMatchesStep(t, c.name, c.mk, budgets...)
		}
		st := c.mk()
		st.Run(0)
		if got := errText(st.Err()); len(got) < len(c.want) || got[:len(c.want)] != c.want {
			t.Errorf("%s: err %q, want prefix %q", c.name, got, c.want)
		}
	}
}

// TestZeroRegistersReadZero checks both drivers read the hardwired zero
// registers as zero even when the exported register file holds something
// else there.
func TestZeroRegistersReadZero(t *testing.T) {
	p := asProgram("zero",
		isa.Inst{Op: isa.ADD, Rd: 1, Ra: isa.RZero, Rb: isa.RZero},
		isa.Inst{Op: isa.ADD, Rd: 2, Ra: isa.FZero, Rb: isa.FZero},
		isa.Inst{Op: isa.STQ, Rd: isa.RZero, Ra: isa.RSP, Imm: -8},
		isa.Inst{Op: isa.LDQ, Rd: 3, Ra: isa.RSP, Imm: -8},
		isa.Inst{Op: isa.HALT})
	for _, drive := range []struct {
		name string
		run  func(*emu.State)
	}{
		{"Run", func(s *emu.State) { s.Run(0) }},
		{"StepInto", func(s *emu.State) { stepN(s, 0) }},
	} {
		s := emu.MustNew(p)
		s.Regs[isa.RZero], s.Regs[isa.FZero] = 0xdead, 0xbeef
		s.Regs[3] = 1
		drive.run(s)
		if !s.Halted || s.Err() != nil {
			t.Fatalf("%s: halted=%v err=%v", drive.name, s.Halted, s.Err())
		}
		if s.Regs[1] != 0 || s.Regs[2] != 0 || s.Regs[3] != 0 {
			t.Errorf("%s: zero registers read as nonzero: r1=%#x r2=%#x r3=%#x",
				drive.name, s.Regs[1], s.Regs[2], s.Regs[3])
		}
	}
}

// encodeProgram packs instructions as the little-endian byte string the
// fuzz target decodes.
func encodeProgram(insts []isa.Inst) []byte {
	b := make([]byte, 0, 8*len(insts))
	for _, in := range insts {
		b = binary.LittleEndian.AppendUint64(b, isa.MustEncode(in))
	}
	return b
}

// fuzzSeedProgram reaches what random programs do not: FP arithmetic,
// compares and conversions, DIV/REM and FDIV by zero, a JSR/RET call,
// FP branches, stores and loads, and HALT.
func fuzzSeedProgram() []isa.Inst {
	const f1, f2, f3, f4 = isa.FPBase + 1, isa.FPBase + 2, isa.FPBase + 3, isa.FPBase + 4
	call := int64(program.DefaultCodeBase) + 8*19 // index of sub below
	return []isa.Inst{
		{Op: isa.LDA, Rd: 1, Ra: isa.RZero, Imm: 7},    // 0
		{Op: isa.DIV, Rd: 3, Ra: 1, Rb: isa.RZero},     // 1
		{Op: isa.REM, Rd: 4, Ra: 1, Rb: 2},             // 2
		{Op: isa.ITOF, Rd: f1, Ra: 1},                  // 3
		{Op: isa.CVTQT, Rd: f2, Ra: f1},                // 4
		{Op: isa.FDIV, Rd: f3, Ra: f2, Rb: isa.FZero},  // 5
		{Op: isa.FMUL, Rd: f3, Ra: f2, Rb: f2},         // 6
		{Op: isa.FSUB, Rd: f4, Ra: f3, Rb: f2},         // 7
		{Op: isa.FCMPLT, Rd: f4, Ra: f2, Rb: f3},       // 8
		{Op: isa.FCMPLE, Rd: f4, Ra: f3, Rb: f2},       // 9
		{Op: isa.FCMPEQ, Rd: f4, Ra: f2, Rb: f2},       // 10
		{Op: isa.CVTTQ, Rd: f1, Ra: f3},                // 11
		{Op: isa.FTOI, Rd: 5, Ra: f1},                  // 12
		{Op: isa.FBEQ, Ra: isa.FZero, Imm: 14},         // 13
		{Op: isa.LDA, Rd: 6, Ra: isa.RZero, Imm: call}, // 14
		{Op: isa.JSR, Rd: isa.RRA, Ra: 6},              // 15
		{Op: isa.FBNE, Ra: f4, Imm: 18},                // 16
		{Op: isa.NOP},                                  // 17
		{Op: isa.HALT},                                 // 18
		{Op: isa.STT, Rd: f2, Ra: isa.RSP, Imm: -8},    // 19: sub
		{Op: isa.LDQ, Rd: 7, Ra: isa.RSP, Imm: -8},     // 20
		{Op: isa.FADD, Rd: f4, Ra: f4, Rb: f2},         // 21
		{Op: isa.BR, Rd: isa.RZero, Imm: 23},           // 22
		{Op: isa.RET, Ra: isa.RRA},                     // 23
	}
}

// FuzzRunMatchesStep is TestRunMatchesStep's property on fuzzed
// programs. With no code bytes the program is progtest.Random(seed);
// otherwise each 8-byte word the ISA decodes becomes one instruction
// (undecodable words are dropped), so branches, calls and loads go
// wherever the fuzzer points them and the error paths get exercised too.
func FuzzRunMatchesStep(f *testing.F) {
	for seed := uint64(1); seed <= 8; seed++ {
		f.Add(seed, []byte(nil), uint16(500))
		f.Add(seed, encodeProgram(progtest.Random(seed).Insts), uint16(3000))
	}
	seed := fuzzSeedProgram()
	if s := emu.MustNew(asProgram("seed", seed...)); s.Run(100) != 23 || !s.Halted || s.Err() != nil {
		f.Fatalf("seed program: %d insts, halted=%v, err=%v; want 23, halted, no error", s.Count, s.Halted, s.Err())
	}
	f.Add(uint64(0), encodeProgram(seed), uint16(40))
	f.Add(uint64(0), encodeProgram(seed[:5]), uint16(9))

	f.Fuzz(func(t *testing.T, seed uint64, code []byte, budget uint16) {
		var p *program.Program
		if len(code) == 0 {
			p = progtest.Random(seed % 1000)
		} else {
			var insts []isa.Inst
			for ; len(code) >= 8 && len(insts) < 256; code = code[8:] {
				if in, err := isa.Decode(binary.LittleEndian.Uint64(code)); err == nil {
					insts = append(insts, in)
				}
			}
			if len(insts) == 0 {
				return
			}
			p = asProgram("fuzz", insts...)
		}
		mk := func() *emu.State { return emu.MustNew(p) }
		n := uint64(budget)%2000 + 1
		checkRunMatchesStep(t, p.Name, mk, n, n/2+1, 3)
	})
}
