package trace

import (
	"testing"
	"unsafe"

	"repro/internal/isa"
)

func TestPredicates(t *testing.T) {
	none := isa.RegNone
	ld := DynInst{In: isa.Inst{Op: isa.OpLd, Rd: isa.A0, Rs1: isa.A1, Rs2: none, Rs3: none}}
	if !ld.IsMem() || ld.IsControl() {
		t.Error("load predicates wrong")
	}
	br := DynInst{In: isa.Inst{Op: isa.OpBne, Rd: none, Rs1: isa.A0, Rs2: isa.A1, Rs3: none}}
	if br.IsMem() || !br.IsControl() {
		t.Error("branch predicates wrong")
	}
	jr := DynInst{In: isa.Inst{Op: isa.OpJalr, Rd: isa.X0, Rs1: isa.RA, Rs2: none, Rs3: none}}
	if !jr.IsControl() {
		t.Error("jalr not control")
	}
	add := DynInst{In: isa.Inst{Op: isa.OpAdd, Rd: isa.A0, Rs1: isa.A1, Rs2: isa.A2, Rs3: none}}
	if add.IsMem() || add.IsControl() {
		t.Error("alu predicates wrong")
	}
}

// TestDynInstSize pins the record at 88 bytes: the five bools (HasAddr,
// Recovered, Taken, WrongPath, Exit) are grouped after WP to share one
// padding word. Every lane copy, queue ring slot and wrong-path buffer
// holds these records, so growth here is a hot-path cost.
func TestDynInstSize(t *testing.T) {
	if n := unsafe.Sizeof(DynInst{}); n > 88 {
		t.Errorf("DynInst is %d bytes, want <= 88 (keep the bools grouped)", n)
	}
}
