// Package emu implements the architectural (functional) emulator for the
// simulator's ISA. It executes programs in order along the correct path.
// One execute kernel is driven two ways: StepInto wraps it in a
// per-instruction execution record, which the register-reuse profiler
// and the timing pipeline's oracle execution consume; Run drives it
// without records, to fast-forward to an architectural state.
package emu

import (
	"fmt"
	"math"

	"rvpsim/internal/isa"
	"rvpsim/internal/mem"
	"rvpsim/internal/program"
	"rvpsim/internal/simerr"
)

// Exec describes one executed (committed) instruction. OldDest is the
// value the destination register held *before* the write — the value
// register value prediction would have used.
type Exec struct {
	Index   int      // static instruction index
	Inst    isa.Inst // the instruction
	PC      uint64   // simulated-memory address of the instruction
	Next    int      // index of the next instruction executed
	WroteRd bool     // instruction architecturally wrote Rd
	OldDest uint64   // prior value of Rd (valid when WroteRd)
	NewDest uint64   // value written to Rd (valid when WroteRd)
	EA      uint64   // effective address (loads/stores)
	IsMem   bool     // load or store
	Taken   bool     // branch outcome (control transfers)
	IsCTI   bool     // control-transfer instruction
}

// State is the architectural machine state. Prog must not be replaced
// or edited after the state is built: its instructions are decoded once,
// into a table private to this state.
type State struct {
	Prog   *program.Program
	Mem    *mem.Memory
	Regs   [isa.NumRegs]uint64
	PC     int // instruction index
	Halted bool
	Count  uint64 // committed instructions

	code []decoded
	err  error
}

// decoded is one static instruction as the kernel consumes it: its
// fields plus the properties the kernel would otherwise re-derive from
// the opcode every time it executes, packed into the 16 bytes of an
// isa.Inst. Every State allocates its own table, so on programs of many
// thousand instructions a wider entry shows in peak memory.
type decoded struct {
	op         isa.Op
	rd, ra, rb isa.Reg
	flags      uint8
	imm        int64
}

// decoded flags. flagReadA and flagReadB are the two low bits, so the
// kernel turns them into read masks without a branch.
const (
	flagReadA  = 1 << iota // Ra is not a hardwired zero register
	flagReadB              // Rb is not a hardwired zero register
	flagWrites             // architecturally writes Rd (isa.Inst.WritesReg)
	flagMem                // load or store
	flagCTI                // control transfer
	flagCond               // conditional branch: a taken outcome jumps to imm
)

// predecode builds a state's private instruction table. Forks on many
// goroutines each hold their own, so nothing mutable is shared through
// the program.
func predecode(prog *program.Program) []decoded {
	code := make([]decoded, len(prog.Insts))
	for i, in := range prog.Insts {
		var fl uint8
		if !in.Ra.IsZero() {
			fl |= flagReadA
		}
		if !in.Rb.IsZero() {
			fl |= flagReadB
		}
		if in.WritesReg() {
			fl |= flagWrites
		}
		cls := isa.Classify(in.Op)
		if cls == isa.ClassLoad || cls == isa.ClassStore {
			fl |= flagMem
		}
		if cls == isa.ClassBranch {
			fl |= flagCTI
		}
		if isa.IsCondBranch(in.Op) {
			fl |= flagCond
		}
		code[i] = decoded{op: in.Op, rd: in.Rd, ra: in.Ra, rb: in.Rb, flags: fl, imm: in.Imm}
	}
	return code
}

// New creates an architectural state for prog: memory is populated with
// the encoded code image and all data chunks, the stack pointer is set,
// and the PC points at the entry instruction. Structurally broken
// programs (empty, entry out of range) are rejected up front; errors
// wrap simerr.ErrConfig.
func New(prog *program.Program) (*State, error) {
	if prog == nil || len(prog.Insts) == 0 {
		return nil, fmt.Errorf("emu: empty program: %w", simerr.ErrConfig)
	}
	if prog.Entry < 0 || prog.Entry >= len(prog.Insts) {
		return nil, fmt.Errorf("emu: program %q entry %d out of range [0,%d): %w",
			prog.Name, prog.Entry, len(prog.Insts), simerr.ErrConfig)
	}
	s := &State{Prog: prog, Mem: mem.NewMemory(), PC: prog.Entry, code: predecode(prog)}
	for i, in := range prog.Insts {
		w, err := isa.Encode(in)
		if err != nil {
			return nil, fmt.Errorf("emu: instruction %d: %w", i, err)
		}
		s.Mem.WriteWord(prog.PC(i), w)
	}
	for _, c := range prog.Data {
		for i, w := range c.Words {
			s.Mem.WriteWord(c.Addr+uint64(i)*8, w)
		}
	}
	s.Regs[isa.RSP] = prog.StackTop
	return s, nil
}

// MustNew is New, panicking on error (for assembler-validated programs).
func MustNew(prog *program.Program) *State {
	s, err := New(prog)
	if err != nil {
		panic(err)
	}
	return s
}

// Err returns the first execution error (bad PC, bad JSR target).
func (s *State) Err() error { return s.err }

func (s *State) read(r isa.Reg) uint64 {
	if r.IsZero() {
		return 0
	}
	return s.Regs[r]
}

func f(v uint64) float64  { return math.Float64frombits(v) }
func fb(v float64) uint64 { return math.Float64bits(v) }
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
func fb2u(b bool) uint64 {
	if b {
		return fb(1.0)
	}
	return fb(0.0)
}

// exec is the ISA's one execute kernel. It executes d, the decoded
// instruction at index i (the caller has checked i is in range): it
// performs the load, store or HALT, writes Rd, and checks the next index.
// It returns the value written to Rd (valid when the instruction writes
// it), the next index, the effective address and the branch outcome. PC
// and Count are left to the driver; after HALT, next is i+1 and s.Halted
// is set. ok is false, with s.err set, for an unimplemented opcode or a
// control transfer to an invalid index. Rd is written before that check,
// so a JSR to a bad target still leaves its link register set.
func (s *State) exec(i int, d *decoded) (result uint64, next int, ea uint64, taken, ok bool) {
	a := s.Regs[d.ra] & -uint64(d.flags&flagReadA)
	b := s.Regs[d.rb] & -uint64((d.flags&flagReadB)>>1)
	next = i + 1

	switch d.op {
	case isa.NOP:
	case isa.ADD:
		result = a + b
	case isa.ADDI:
		result = a + uint64(d.imm)
	case isa.SUB:
		result = a - b
	case isa.SUBI:
		result = a - uint64(d.imm)
	case isa.MUL:
		result = a * b
	case isa.MULI:
		result = a * uint64(d.imm)
	case isa.DIV:
		if b != 0 {
			result = uint64(int64(a) / int64(b))
		}
	case isa.REM:
		if b != 0 {
			result = uint64(int64(a) % int64(b))
		}
	case isa.AND:
		result = a & b
	case isa.ANDI:
		result = a & uint64(d.imm)
	case isa.OR:
		result = a | b
	case isa.ORI:
		result = a | uint64(d.imm)
	case isa.XOR:
		result = a ^ b
	case isa.XORI:
		result = a ^ uint64(d.imm)
	case isa.SLL:
		result = a << (b & 63)
	case isa.SLLI:
		result = a << (uint64(d.imm) & 63)
	case isa.SRL:
		result = a >> (b & 63)
	case isa.SRLI:
		result = a >> (uint64(d.imm) & 63)
	case isa.SRA:
		result = uint64(int64(a) >> (b & 63))
	case isa.SRAI:
		result = uint64(int64(a) >> (uint64(d.imm) & 63))
	case isa.CMPEQ:
		result = b2u(a == b)
	case isa.CMPEQI:
		result = b2u(int64(a) == d.imm)
	case isa.CMPLT:
		result = b2u(int64(a) < int64(b))
	case isa.CMPLTI:
		result = b2u(int64(a) < d.imm)
	case isa.CMPLE:
		result = b2u(int64(a) <= int64(b))
	case isa.CMPLEI:
		result = b2u(int64(a) <= d.imm)
	case isa.CMPULT:
		result = b2u(a < b)
	case isa.LDA:
		result = a + uint64(d.imm)
	case isa.LDAH:
		result = a + uint64(d.imm)<<16
	case isa.LDQ, isa.RVPLDQ, isa.LDT, isa.RVPLDT:
		ea = a + uint64(d.imm)
		result = s.Mem.ReadWord(ea)
	case isa.STQ, isa.STT:
		ea = a + uint64(d.imm)
		s.Mem.WriteWord(ea, s.read(d.rd))
	case isa.BEQ:
		taken = int64(a) == 0
	case isa.BNE:
		taken = int64(a) != 0
	case isa.BLT:
		taken = int64(a) < 0
	case isa.BGE:
		taken = int64(a) >= 0
	case isa.BGT:
		taken = int64(a) > 0
	case isa.BLE:
		taken = int64(a) <= 0
	case isa.FBEQ:
		taken = f(a) == 0
	case isa.FBNE:
		taken = f(a) != 0
	case isa.BR:
		taken = true
		result = s.Prog.PC(i + 1)
		next = int(d.imm)
	case isa.JSR:
		taken = true
		result = s.Prog.PC(i + 1)
		next = s.Prog.Index(a)
	case isa.RET:
		taken = true
		next = s.Prog.Index(a)
	case isa.FADD:
		result = fb(f(a) + f(b))
	case isa.FSUB:
		result = fb(f(a) - f(b))
	case isa.FMUL:
		result = fb(f(a) * f(b))
	case isa.FDIV:
		if f(b) != 0 {
			result = fb(f(a) / f(b))
		} else {
			result = fb(0)
		}
	case isa.FCMPEQ:
		result = fb2u(f(a) == f(b))
	case isa.FCMPLT:
		result = fb2u(f(a) < f(b))
	case isa.FCMPLE:
		result = fb2u(f(a) <= f(b))
	case isa.CVTQT:
		result = fb(float64(int64(a)))
	case isa.CVTTQ:
		result = uint64(int64(f(a)))
	case isa.ITOF, isa.FTOI:
		result = a
	case isa.HALT:
		s.Halted = true
		return 0, next, 0, false, true
	default:
		s.err = fmt.Errorf("emu: unimplemented opcode %v at %d", d.op, i)
		return 0, 0, 0, false, false
	}

	if d.flags&flagCond != 0 && taken {
		next = int(d.imm)
	}
	if d.flags&flagWrites != 0 {
		s.Regs[d.rd] = result
	}
	if next < 0 || next >= len(s.code) {
		s.err = fmt.Errorf("emu: control transfer from %d to invalid index %d", i, next)
		return 0, 0, 0, false, false
	}
	return result, next, ea, taken, true
}

// runnable reports whether the state can execute the instruction at pc.
func (s *State) runnable(pc int) bool {
	return !s.Halted && s.err == nil && uint(pc) < uint(len(s.code))
}

// stop is what a driver does when the state is not runnable at pc: it
// records an out-of-range pc as the state's error, unless the state has
// already halted or failed.
func (s *State) stop(pc int) {
	if !s.Halted && s.err == nil {
		s.err = fmt.Errorf("emu: pc %d out of range", pc)
	}
}

// Step executes one instruction and returns its execution record. After
// HALT (or an error), Step returns ok == false.
func (s *State) Step() (Exec, bool) {
	var e Exec
	ok := s.StepInto(&e)
	return e, ok
}

// StepInto is Step writing the execution record into *e instead of
// returning it, so a caller-owned record can be reused across the hot
// loop without copying the (large) Exec struct every instruction. On
// ok == false, *e is zeroed.
func (s *State) StepInto(e *Exec) bool {
	i := s.PC
	if !s.runnable(i) {
		s.stop(i)
		*e = Exec{}
		return false
	}
	d := &s.code[i]
	wrote := d.flags&flagWrites != 0
	var old uint64
	if wrote {
		old = s.Regs[d.rd]
	}
	result, next, ea, taken, ok := s.exec(i, d)
	if !ok {
		*e = Exec{}
		return false
	}
	s.Count++
	// Field-by-field fill instead of a composite-literal assignment: the
	// latter compiles to a stack temporary plus duffcopy of the whole
	// struct, which profiling shows at ~15% of simulation time.
	e.Index = i
	e.Inst = s.Prog.Insts[i]
	e.PC = s.Prog.PC(i)
	e.Next = next
	e.EA = ea
	e.IsMem = d.flags&flagMem != 0
	e.Taken = taken
	e.IsCTI = d.flags&flagCTI != 0
	e.WroteRd = wrote
	e.OldDest = old
	e.NewDest = 0
	if wrote {
		e.NewDest = result
	}
	if !s.Halted {
		s.PC = next
	}
	return true
}

// Run executes until HALT, an error, or max committed instructions
// (max <= 0 means unlimited). It returns the number executed. Run builds
// no execution records: it is the fast-forward path.
func (s *State) Run(max uint64) uint64 {
	pc := s.PC
	if !s.runnable(pc) {
		s.stop(pc)
		return 0
	}
	left := max
	if left == 0 {
		left = math.MaxUint64
	}
	// Every next index the kernel returns is in range, so pc needs no
	// further check inside the loop.
	code := s.code
	var n uint64
	for ; left > 0; left-- {
		_, next, _, _, ok := s.exec(pc, &code[pc])
		if !ok {
			break
		}
		n++
		if s.Halted {
			break
		}
		pc = next
	}
	s.PC = pc
	s.Count += n
	return n
}
