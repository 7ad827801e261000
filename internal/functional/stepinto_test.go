package functional_test

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/asm"
	"repro/internal/functional"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/trace"
)

// poisoned returns a record with every field set to junk, standing for
// a reused queue slot or path buffer that still holds an older record.
func poisoned() trace.DynInst {
	return trace.DynInst{
		Seq:       0xbad5e9,
		PC:        0xbad0c,
		In:        isa.Inst{Op: isa.OpFmadd, Rd: isa.F(9), Rs1: isa.T6, Rs2: isa.S11, Rs3: isa.F(3), Imm: -77, Target: 0xbad7a},
		MemAddr:   0xbadadd,
		NextPC:    0xbad9c,
		WP:        make([]trace.DynInst, 3),
		HasAddr:   true,
		Recovered: true,
		Taken:     true,
		WrongPath: true,
		Exit:      true,
	}
}

// TestPoisonCoversEveryField keeps poisoned honest: a field added to
// DynInst without poisoning would let a stale value slip through the
// in-place tests unnoticed.
func TestPoisonCoversEveryField(t *testing.T) {
	v := reflect.ValueOf(poisoned())
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Errorf("poisoned leaves DynInst.%s zero", v.Type().Field(i).Name)
		}
	}
}

// stepBoth runs two CPUs over the same program in lockstep, one through
// Step and one through StepInto into a freshly poisoned record, and
// requires identical records and errors — through the program's end and
// the error steps after it.
func stepBoth(t *testing.T, prog *isa.Program, setup func(*functional.CPU), steps int) {
	t.Helper()
	a := functional.New(prog, mem.New(), 0x10000)
	b := functional.New(prog, mem.New(), 0x10000)
	if setup != nil {
		setup(a)
		setup(b)
	}
	for i := 0; i < steps; i++ {
		want, wantErr := a.Step()
		got := poisoned()
		gotErr := b.StepInto(&got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d at pc %#x: StepInto wrote %+v, Step returned %+v", i, want.PC, got, want)
		}
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("step %d: StepInto error %v, Step error %v", i, gotErr, wantErr)
		}
	}
}

// TestStepIntoMatchesStep: StepInto overwrites every field of a reused
// record, so writing into a poisoned one yields exactly what Step
// returns — on every instruction of the differential programs (ending
// in an ecall and then stepping past the program) and of a program
// exercising loads, stores, branches, calls, returns and exit.
func TestStepIntoMatchesStep(t *testing.T) {
	f := func(seed uint64, length uint8) bool {
		prog, init, n := randomProgram(seed, length)
		stepBoth(t, prog, func(c *functional.CPU) {
			for i := 1; i < isa.NumIntRegs; i++ {
				c.SetReg(isa.Reg(i), init[i])
			}
		}, n+3)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}

	prog := asm.MustAssemble(`
    li   s0, 0x4000
    li   t0, 6
loop:
    sd   t0, 0(s0)
    ld   t1, 0(s0)
    fcvt.d.l f1, t1
    fsd  f1, 8(s0)
    jal  ra, leaf
    addi s0, s0, 16
    addi t0, t0, -1
    bnez t0, loop
    li   a7, 0
    li   a0, 3
    ecall
leaf:
    andi t2, t1, 1
    beqz t2, even
    addi a1, a1, 1
even:
    ret
`)
	stepBoth(t, prog, nil, 200)
}

// TestAppendWrongPathRecycledBuffer: AppendWrongPath steps each record
// into the next slot of dst, so a recycled buffer whose spare capacity
// holds stale records — with room to spare, too little room, or a kept
// prefix — yields the same records as a fresh buffer.
func TestAppendWrongPathRecycledBuffer(t *testing.T) {
	prog := asm.MustAssemble(`
main:
    li   t0, 0x500
    li   t1, 7
    beq  zero, zero, correct
    sd   t1, 0(t0)
    ld   t2, 0(t0)
    addi t2, t2, 1
    beq  t2, t1, main
    jal  ra, sub
    li   a7, 0
    ecall
sub:
    ld   t3, 8(t0)
    ret
correct:
    nop
`)
	cpu := functional.New(prog, mem.New(), 0x10000)
	for i := 0; i < 3; i++ {
		if _, err := cpu.Step(); err != nil {
			t.Fatal(err)
		}
	}
	target := prog.Base + 3*isa.InstBytes // the branch's fall-through
	fresh := cpu.AppendWrongPath(nil, target, 64)
	if len(fresh) < 6 {
		t.Fatalf("wrong path of %d records is too short to exercise the buffer", len(fresh))
	}
	prefix := poisoned()
	prefix.WP = nil
	for _, tc := range []struct {
		name      string
		keep, cap int
	}{
		{"roomy", 0, 64},
		{"too small", 0, 2},
		{"kept prefix", 1, 64},
	} {
		buf := make([]trace.DynInst, tc.cap)
		for i := range buf {
			buf[i] = poisoned()
		}
		buf[0] = prefix
		got := cpu.AppendWrongPath(buf[:tc.keep], target, 64)
		want := fresh
		if tc.keep > 0 {
			want = append([]trace.DynInst{prefix}, fresh...)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: recycled buffer yields %+v, fresh %+v", tc.name, got, want)
		}
	}
}
