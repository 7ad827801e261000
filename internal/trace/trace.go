// Package trace defines DynInst, the dynamic-instruction record that
// flows from the functional simulator to the performance simulator —
// the payload of the decoupling queue in functional-first simulation.
// It carries exactly the data the paper lists: instruction address,
// decoded instruction (type, input and output registers), data memory
// address, and branch outcome/target.
package trace

import "repro/internal/isa"

// DynInst is one dynamically executed (or reconstructed) instruction.
//
// The five bools sit together after WP so they share one word of
// padding: the record is 88 bytes instead of the 104 it takes with each
// bool padded out next to its related field. Every lane copy, queue
// ring slot and wrong-path buffer holds these records, so keep new
// fields grouped by size.
type DynInst struct {
	// Seq is the dynamic sequence number on the correct path. Wrong-path
	// records reuse the triggering branch's Seq.
	Seq uint64
	// PC is the instruction address.
	PC uint64
	// In is the decoded instruction.
	In isa.Inst

	// MemAddr is the effective data address for loads/stores; valid only
	// when HasAddr is true. Correct-path and functionally-emulated
	// wrong-path records always have HasAddr set for memory operations;
	// reconstructed wrong-path records only have it when the convergence
	// technique recovered the address.
	MemAddr uint64
	// NextPC is the PC of the next instruction actually executed
	// (target if taken, fall-through otherwise). For wrong-path records
	// it is the next PC along the wrong path.
	NextPC uint64

	// WP is the functionally emulated wrong path attached to a
	// mispredicted branch by the wpemul frontend; nil in all other modes.
	// The frontend owns the buffer: the core may read it until it has
	// finished the branch, then returns it (sim.Source.ReleaseWP) and
	// clears WP, after which the buffer holds a later branch's path.
	WP []DynInst

	// HasAddr reports whether MemAddr is valid (see MemAddr).
	HasAddr bool
	// Recovered marks a wrong-path memory operation whose address was
	// recovered by convergence exploitation (for Table III statistics).
	Recovered bool
	// Taken is the actual direction of a conditional branch.
	Taken bool
	// WrongPath marks instructions on a speculative wrong path.
	WrongPath bool
	// Exit marks the instruction that terminated the program (the exit
	// environment call).
	Exit bool
}

// Extend grows buf by one record — within its capacity when there is
// room, as append would otherwise — and returns the longer slice and
// its new last slot. The slot may hold a stale record: producers write
// records in place through it and must overwrite every field.
func Extend(buf []DynInst) ([]DynInst, *DynInst) {
	if len(buf) == cap(buf) {
		buf = append(buf, DynInst{})
	} else {
		buf = buf[:len(buf)+1]
	}
	return buf, &buf[len(buf)-1]
}

// IsMem reports whether the record is a data-memory operation.
func (d *DynInst) IsMem() bool { return d.In.Op.IsMem() }

// IsControl reports whether the record can redirect the PC.
func (d *DynInst) IsControl() bool { return d.In.Op.IsControl() }
