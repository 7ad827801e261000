// Package functional implements the architectural (functional)
// simulator: it executes instructions exactly, maintaining register and
// memory state, and emits the dynamic-instruction records consumed by
// the performance simulator. It plays the role Intel Pin plays in the
// paper's setup and exposes the specific capabilities the wrong-path
// emulation technique needs from it: machine-state checkpoints,
// execute-at redirection, store suppression, and termination of a
// speculative path on environment calls or faults.
package functional

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/trace"
)

// Syscall numbers (register a7).
const (
	SysExit       = 0 // a0 = exit code
	SysPrintInt   = 1 // a0 = value, printed in decimal with newline
	SysPrintChar  = 2 // a0 = byte
	SysPrintFloat = 3 // f10 = value, printed with newline
)

// Execution-terminating conditions. These are "faults" only in the
// simulator sense: on the wrong path they end speculation (as the paper
// requires: kernel code cannot be instrumented, unexpected weirdness
// must not crash the tool); on the correct path they are reported as
// errors.
var (
	// ErrBadPC is returned when the PC leaves the program image.
	ErrBadPC = errors.New("functional: PC outside program")
	// ErrInvalidInst is returned for an undecodable instruction.
	ErrInvalidInst = errors.New("functional: invalid instruction")
	// ErrBadSyscall is returned for an unknown environment-call number.
	ErrBadSyscall = errors.New("functional: unknown syscall")
	// ErrHalted is returned by Step after the program has exited.
	ErrHalted = errors.New("functional: program has exited")
)

// Checkpoint is a snapshot of the register state (the paper's Pin
// checkpoint). Memory is not included: wrong-path stores are suppressed,
// so memory never needs rollback.
type Checkpoint struct {
	regs  [isa.NumIntRegs]uint64
	fregs [isa.NumFPRegs]uint64
	pc    uint64
}

// CPU is the architectural state plus the program being run.
type CPU struct {
	Prog *isa.Program
	Mem  *mem.Memory

	regs  [isa.NumIntRegs]uint64
	fregs [isa.NumFPRegs]uint64 // IEEE-754 bit patterns
	pc    uint64

	halted   bool
	exitCode int64
	instret  uint64 // retired (correct-path) instruction count
	seq      uint64

	// suppressStores makes stores no-ops; set during wrong-path emulation.
	suppressStores bool

	// Output accumulates the program's printed output (print syscalls).
	Output []byte
}

// New creates a CPU at the program's entry point with the given memory
// image. The stack pointer is initialized to stackTop (pass 0 for no
// stack setup).
func New(prog *isa.Program, m *mem.Memory, stackTop uint64) *CPU {
	c := &CPU{Prog: prog, Mem: m, pc: prog.Entry}
	if stackTop != 0 {
		c.regs[isa.SP] = stackTop
	}
	return c
}

// PC returns the current program counter.
func (c *CPU) PC() uint64 { return c.pc }

// SetPC redirects execution (the paper's PIN_ExecuteAt).
func (c *CPU) SetPC(pc uint64) { c.pc = pc }

// Halted reports whether the program has exited.
func (c *CPU) Halted() bool { return c.halted }

// ExitCode returns the program's exit code (valid after Halted).
func (c *CPU) ExitCode() int64 { return c.exitCode }

// Retired returns the number of retired correct-path instructions.
func (c *CPU) Retired() uint64 { return c.instret }

// Reg returns the value of an integer register.
func (c *CPU) Reg(r isa.Reg) uint64 {
	if r.IsFP() || !r.Valid() {
		panic(fmt.Sprintf("functional: Reg(%v) is not an integer register", r))
	}
	return c.regs[r]
}

// SetReg sets an integer register (writes to x0 are discarded).
func (c *CPU) SetReg(r isa.Reg, v uint64) {
	if r.IsFP() || !r.Valid() {
		panic(fmt.Sprintf("functional: SetReg(%v) is not an integer register", r))
	}
	if r != isa.X0 {
		c.regs[r] = v
	}
}

// FReg returns the value of a floating-point register.
func (c *CPU) FReg(r isa.Reg) float64 {
	if !r.IsFP() {
		panic(fmt.Sprintf("functional: FReg(%v) is not an FP register", r))
	}
	return math.Float64frombits(c.fregs[r-isa.NumIntRegs])
}

// SetFReg sets a floating-point register.
func (c *CPU) SetFReg(r isa.Reg, v float64) {
	if !r.IsFP() {
		panic(fmt.Sprintf("functional: SetFReg(%v) is not an FP register", r))
	}
	c.fregs[r-isa.NumIntRegs] = math.Float64bits(v)
}

// Checkpoint snapshots the register state.
func (c *CPU) Checkpoint() Checkpoint {
	return Checkpoint{regs: c.regs, fregs: c.fregs, pc: c.pc}
}

// Restore rolls the register state back to a checkpoint.
func (c *CPU) Restore(cp Checkpoint) {
	c.regs, c.fregs, c.pc = cp.regs, cp.fregs, cp.pc
}

func (c *CPU) freg(r isa.Reg) float64 { return math.Float64frombits(c.fregs[r-isa.NumIntRegs]) }
func (c *CPU) fbits(r isa.Reg) uint64 { return c.fregs[r-isa.NumIntRegs] }
func (c *CPU) setf(r isa.Reg, v float64) {
	c.fregs[r-isa.NumIntRegs] = math.Float64bits(v)
}
func (c *CPU) setfb(r isa.Reg, b uint64) { c.fregs[r-isa.NumIntRegs] = b }
func (c *CPU) setx(r isa.Reg, v uint64) {
	if r != isa.X0 && r != isa.RegNone {
		c.regs[r] = v
	}
}

// Step executes the instruction at the current PC and returns its
// dynamic record. The returned error is non-nil when execution cannot
// proceed (bad PC, invalid instruction, unknown syscall, already
// halted); the CPU state is unchanged in that case except that no
// instruction retires.
func (c *CPU) Step() (trace.DynInst, error) {
	var di trace.DynInst
	err := c.StepInto(&di)
	return di, err
}

// StepInto is Step writing the record into *di instead of returning
// it, so the hot paths fill queue slots and wrong-path buffers in place
// rather than copying the record out. Every field of *di is
// overwritten — including on error, where *di holds what Step would
// have returned — so di may point at a reused slot holding any earlier
// record.
func (c *CPU) StepInto(di *trace.DynInst) error {
	// Zero first, then store fields: assigning a composite literal with
	// fields to *di would build it in a temporary and copy it over.
	*di = trace.DynInst{}
	if c.halted {
		return ErrHalted
	}
	in, ok := c.Prog.At(c.pc)
	if !ok {
		return fmt.Errorf("%w: pc=0x%x", ErrBadPC, c.pc)
	}
	di.Seq = c.seq
	di.PC = c.pc
	di.In = in
	di.NextPC = c.pc + isa.InstBytes

	switch in.Op {
	case isa.OpNop:
		// nothing

	// --- integer ALU ---
	case isa.OpAdd:
		c.setx(in.Rd, c.regs[in.Rs1]+c.regs[in.Rs2])
	case isa.OpSub:
		c.setx(in.Rd, c.regs[in.Rs1]-c.regs[in.Rs2])
	case isa.OpAnd:
		c.setx(in.Rd, c.regs[in.Rs1]&c.regs[in.Rs2])
	case isa.OpOr:
		c.setx(in.Rd, c.regs[in.Rs1]|c.regs[in.Rs2])
	case isa.OpXor:
		c.setx(in.Rd, c.regs[in.Rs1]^c.regs[in.Rs2])
	case isa.OpSll:
		c.setx(in.Rd, c.regs[in.Rs1]<<(c.regs[in.Rs2]&63))
	case isa.OpSrl:
		c.setx(in.Rd, c.regs[in.Rs1]>>(c.regs[in.Rs2]&63))
	case isa.OpSra:
		c.setx(in.Rd, uint64(int64(c.regs[in.Rs1])>>(c.regs[in.Rs2]&63)))
	case isa.OpSlt:
		c.setx(in.Rd, b2u(int64(c.regs[in.Rs1]) < int64(c.regs[in.Rs2])))
	case isa.OpSltu:
		c.setx(in.Rd, b2u(c.regs[in.Rs1] < c.regs[in.Rs2]))
	case isa.OpAddi:
		c.setx(in.Rd, c.regs[in.Rs1]+uint64(in.Imm))
	case isa.OpAndi:
		c.setx(in.Rd, c.regs[in.Rs1]&uint64(in.Imm))
	case isa.OpOri:
		c.setx(in.Rd, c.regs[in.Rs1]|uint64(in.Imm))
	case isa.OpXori:
		c.setx(in.Rd, c.regs[in.Rs1]^uint64(in.Imm))
	case isa.OpSlli:
		c.setx(in.Rd, c.regs[in.Rs1]<<(uint64(in.Imm)&63))
	case isa.OpSrli:
		c.setx(in.Rd, c.regs[in.Rs1]>>(uint64(in.Imm)&63))
	case isa.OpSrai:
		c.setx(in.Rd, uint64(int64(c.regs[in.Rs1])>>(uint64(in.Imm)&63)))
	case isa.OpSlti:
		c.setx(in.Rd, b2u(int64(c.regs[in.Rs1]) < in.Imm))
	case isa.OpSltiu:
		c.setx(in.Rd, b2u(c.regs[in.Rs1] < uint64(in.Imm)))
	case isa.OpLui:
		c.setx(in.Rd, uint64(in.Imm))

	// --- integer multiply/divide (RISC-V semantics: no traps) ---
	case isa.OpMul:
		c.setx(in.Rd, c.regs[in.Rs1]*c.regs[in.Rs2])
	case isa.OpMulh:
		hi, _ := mul128(int64(c.regs[in.Rs1]), int64(c.regs[in.Rs2]))
		c.setx(in.Rd, uint64(hi))
	case isa.OpDiv:
		c.setx(in.Rd, uint64(sdiv(int64(c.regs[in.Rs1]), int64(c.regs[in.Rs2]))))
	case isa.OpDivu:
		c.setx(in.Rd, udiv(c.regs[in.Rs1], c.regs[in.Rs2]))
	case isa.OpRem:
		c.setx(in.Rd, uint64(srem(int64(c.regs[in.Rs1]), int64(c.regs[in.Rs2]))))
	case isa.OpRemu:
		c.setx(in.Rd, urem(c.regs[in.Rs1], c.regs[in.Rs2]))

	// --- loads ---
	case isa.OpLd, isa.OpLw, isa.OpLwu, isa.OpLh, isa.OpLhu, isa.OpLb, isa.OpLbu:
		addr := c.regs[in.Rs1] + uint64(in.Imm)
		di.MemAddr, di.HasAddr = addr, true
		raw := c.Mem.Read(addr, in.Op.MemBytes())
		c.setx(in.Rd, extend(in.Op, raw))
	case isa.OpFld:
		addr := c.regs[in.Rs1] + uint64(in.Imm)
		di.MemAddr, di.HasAddr = addr, true
		c.setfb(in.Rd, c.Mem.Read(addr, 8))

	// --- stores ---
	case isa.OpSd, isa.OpSw, isa.OpSh, isa.OpSb:
		addr := c.regs[in.Rs1] + uint64(in.Imm)
		di.MemAddr, di.HasAddr = addr, true
		if !c.suppressStores {
			c.Mem.Write(addr, c.regs[in.Rs2], in.Op.MemBytes())
		}
	case isa.OpFsd:
		addr := c.regs[in.Rs1] + uint64(in.Imm)
		di.MemAddr, di.HasAddr = addr, true
		if !c.suppressStores {
			c.Mem.Write(addr, c.fbits(in.Rs2), 8)
		}

	// --- floating point ---
	case isa.OpFadd:
		c.setf(in.Rd, c.freg(in.Rs1)+c.freg(in.Rs2))
	case isa.OpFsub:
		c.setf(in.Rd, c.freg(in.Rs1)-c.freg(in.Rs2))
	case isa.OpFmul:
		c.setf(in.Rd, c.freg(in.Rs1)*c.freg(in.Rs2))
	case isa.OpFdiv:
		c.setf(in.Rd, c.freg(in.Rs1)/c.freg(in.Rs2))
	case isa.OpFsqrt:
		c.setf(in.Rd, math.Sqrt(c.freg(in.Rs1)))
	case isa.OpFmin:
		c.setf(in.Rd, math.Min(c.freg(in.Rs1), c.freg(in.Rs2)))
	case isa.OpFmax:
		c.setf(in.Rd, math.Max(c.freg(in.Rs1), c.freg(in.Rs2)))
	case isa.OpFneg:
		c.setf(in.Rd, -c.freg(in.Rs1))
	case isa.OpFabs:
		c.setf(in.Rd, math.Abs(c.freg(in.Rs1)))
	case isa.OpFmadd:
		// math.FMA guarantees a single rounding on every platform; a
		// plain a*b+c may or may not be fused depending on the target,
		// which would break cross-platform determinism.
		c.setf(in.Rd, math.FMA(c.freg(in.Rs1), c.freg(in.Rs2), c.freg(in.Rs3)))
	case isa.OpFcvtDL:
		c.setf(in.Rd, float64(int64(c.regs[in.Rs1])))
	case isa.OpFcvtLD:
		c.setx(in.Rd, uint64(int64(c.freg(in.Rs1))))
	case isa.OpFmvXD:
		c.setx(in.Rd, c.fbits(in.Rs1))
	case isa.OpFmvDX:
		c.setfb(in.Rd, c.regs[in.Rs1])
	case isa.OpFeq:
		c.setx(in.Rd, b2u(c.freg(in.Rs1) == c.freg(in.Rs2)))
	case isa.OpFlt:
		c.setx(in.Rd, b2u(c.freg(in.Rs1) < c.freg(in.Rs2)))
	case isa.OpFle:
		c.setx(in.Rd, b2u(c.freg(in.Rs1) <= c.freg(in.Rs2)))

	// --- control flow ---
	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpBltu, isa.OpBgeu:
		di.Taken = evalBranch(in.Op, c.regs[in.Rs1], c.regs[in.Rs2])
		if di.Taken {
			di.NextPC = in.Target
		}
	case isa.OpJal:
		c.setx(in.Rd, c.pc+isa.InstBytes)
		di.NextPC = in.Target
		di.Taken = true
	case isa.OpJalr:
		target := (c.regs[in.Rs1] + uint64(in.Imm)) &^ 1
		c.setx(in.Rd, c.pc+isa.InstBytes)
		di.NextPC = target
		di.Taken = true

	// --- system ---
	case isa.OpEcall:
		if err := c.syscall(di); err != nil {
			return err
		}

	default:
		return fmt.Errorf("%w: %v at pc=0x%x", ErrInvalidInst, in.Op, c.pc)
	}

	c.pc = di.NextPC
	c.seq++
	if !c.suppressStores {
		c.instret++
	}
	return nil
}

func (c *CPU) syscall(di *trace.DynInst) error {
	switch c.regs[isa.A7] {
	case SysExit:
		c.halted = true
		c.exitCode = int64(c.regs[isa.A0])
		di.Exit = true
	case SysPrintInt:
		c.Output = append(c.Output, []byte(fmt.Sprintf("%d\n", int64(c.regs[isa.A0])))...)
	case SysPrintChar:
		c.Output = append(c.Output, byte(c.regs[isa.A0]))
	case SysPrintFloat:
		c.Output = append(c.Output, []byte(fmt.Sprintf("%g\n", c.freg(isa.F(10))))...)
	default:
		return fmt.Errorf("%w: a7=%d at pc=0x%x", ErrBadSyscall, c.regs[isa.A7], c.pc)
	}
	return nil
}

// WrongPathEmulate implements the paper's functional wrong-path
// emulation: checkpoint the machine state, redirect execution to the
// predicted (wrong) target, execute with stores suppressed until
// maxInsts instructions have run or the path ends (environment call,
// invalid instruction, or PC leaving the program — the events that end
// a speculative path in the Pin-based implementation), then restore the
// checkpoint. The emulated records are returned with WrongPath set.
//
// The CPU's architectural state, retired-instruction count and program
// output are unchanged by the call.
func (c *CPU) WrongPathEmulate(target uint64, maxInsts int) []trace.DynInst {
	return c.AppendWrongPath(nil, target, maxInsts)
}

// AppendWrongPath is the allocation-aware form of WrongPathEmulate: the
// emulated records are appended to dst (typically an empty recycled
// buffer with capacity maxInsts, so steady-state emulation allocates
// nothing) and the extended slice is returned.
func (c *CPU) AppendWrongPath(dst []trace.DynInst, target uint64, maxInsts int) []trace.DynInst {
	if c.halted || maxInsts <= 0 {
		return dst
	}
	cp := c.Checkpoint()
	savedSeq := c.seq
	c.suppressStores = true
	c.pc = target

	for n := 0; n < maxInsts; n++ {
		if in, ok := c.Prog.At(c.pc); !ok || in.Op == isa.OpEcall {
			break
		}
		// Step straight into the next slot; drop it again if the step
		// fails.
		var di *trace.DynInst
		dst, di = trace.Extend(dst)
		if c.StepInto(di) != nil {
			dst = dst[:len(dst)-1]
			break
		}
		di.WrongPath = true
		di.Seq = savedSeq
	}

	c.suppressStores = false
	c.seq = savedSeq
	c.Restore(cp)
	return dst
}

// Run executes until the program halts or maxInsts instructions retire,
// discarding the dynamic records; useful for functional-only validation
// of workloads. It returns the number of instructions retired by the
// call and the first error encountered (nil on clean exit or cap).
func (c *CPU) Run(maxInsts uint64) (uint64, error) {
	var n uint64
	for n < maxInsts && !c.halted {
		if _, err := c.Step(); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func extend(op isa.Op, raw uint64) uint64 {
	switch op {
	case isa.OpLw:
		return uint64(int64(int32(raw)))
	case isa.OpLh:
		return uint64(int64(int16(raw)))
	case isa.OpLb:
		return uint64(int64(int8(raw)))
	default: // ld, lwu, lhu, lbu: zero-extended by mem.Read already
		return raw
	}
}

func evalBranch(op isa.Op, a, b uint64) bool {
	switch op {
	case isa.OpBeq:
		return a == b
	case isa.OpBne:
		return a != b
	case isa.OpBlt:
		return int64(a) < int64(b)
	case isa.OpBge:
		return int64(a) >= int64(b)
	case isa.OpBltu:
		return a < b
	case isa.OpBgeu:
		return a >= b
	default:
		// Callers guarantee op.IsCondBranch(); a non-branch here is a
		// decode bug, never wrong-path data.
		panic("functional: not a branch: " + op.String())
	}
}

// sdiv implements RISC-V signed division: divide-by-zero yields -1,
// overflow (MinInt64 / -1) yields MinInt64. No traps, so wrong-path
// divides can never crash the simulator — the property the paper needs.
func sdiv(a, b int64) int64 {
	switch {
	case b == 0:
		return -1
	case a == math.MinInt64 && b == -1:
		return math.MinInt64
	default:
		return a / b
	}
}

func srem(a, b int64) int64 {
	switch {
	case b == 0:
		return a
	case a == math.MinInt64 && b == -1:
		return 0
	default:
		return a % b
	}
}

func udiv(a, b uint64) uint64 {
	if b == 0 {
		return math.MaxUint64
	}
	return a / b
}

func urem(a, b uint64) uint64 {
	if b == 0 {
		return a
	}
	return a % b
}

// mul128 returns the high and low 64 bits of the signed 128-bit product.
func mul128(a, b int64) (hi, lo int64) {
	au, bu := uint64(a), uint64(b)
	ahi, alo := au>>32, au&0xffffffff
	bhi, blo := bu>>32, bu&0xffffffff
	t := alo * blo
	w0 := t & 0xffffffff
	k := t >> 32
	t = ahi*blo + k
	w1 := t & 0xffffffff
	w2 := t >> 32
	t = alo*bhi + w1
	k = t >> 32
	hiU := ahi*bhi + w2 + k
	loU := (t << 32) | w0
	// Convert unsigned 128-bit product to signed.
	if a < 0 {
		hiU -= bu
	}
	if b < 0 {
		hiU -= au
	}
	return int64(hiU), int64(loU)
}
