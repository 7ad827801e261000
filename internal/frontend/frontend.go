// Package frontend adapts the functional simulator to the decoupling
// queue: it executes the program instruction by instruction, emitting
// the dynamic records the performance simulator consumes.
//
// In wrong-path-emulation mode the frontend additionally keeps its own
// copy of the branch predictor — "the functional simulator contains a
// copy of the branch predictor model and initiates a list of wrong-path
// instructions when a misprediction is modeled" (§III-B). Because both
// predictor copies are updated by the same correct-path control
// instructions in program order using the same policy
// (branch.PredictAndUpdate), the frontend detects exactly the
// mispredictions the performance model will detect, checkpoints the
// functional state, emulates the predicted (wrong) path with stores
// suppressed, attaches the emulated records to the branch, and restores
// the checkpoint. The frontend keeps ownership of each emulated path:
// the core reads it until it has finished that branch and then returns
// it (ReleaseWP) for reuse by a later mispredict.
package frontend

import (
	"sync"

	"repro/internal/branch"
	"repro/internal/functional"
	"repro/internal/trace"
)

// Frontend drives a functional CPU and implements queue.Producer.
type Frontend struct {
	cpu *functional.CPU

	// pred is the wpemul-mode predictor copy; nil in the other modes.
	pred *branch.Unit
	// wpMaxLen caps emulated wrong paths (ROB + front-end buffers).
	wpMaxLen int

	// maxInsts stops production after that many correct-path
	// instructions (0 = unlimited).
	maxInsts uint64
	produced uint64

	// wpMu guards wpFree: the producer takes buffers in emulateWP while
	// the core returns them through ReleaseWP, which under the parallel
	// frontend runs on the consumer goroutine.
	wpMu sync.Mutex
	// wpFree holds empty path buffers, each with capacity wpMaxLen,
	// that the core has finished with; emulateWP allocates only when it
	// is empty. It lives for one run: DropWPBuffers empties it.
	wpFree [][]trace.DynInst
	// wpNext is the buffer the next emulation appends into, kept across
	// emulations that produced an empty path. Producer-owned.
	wpNext []trace.DynInst

	err error

	// Statistics.
	wpEmulations uint64
	wpEmulated   uint64
}

// Option configures a Frontend.
type Option func(*Frontend)

// WithWrongPathEmulation enables functional wrong-path emulation using
// a predictor initialized from cfg (it must equal the core's predictor
// configuration) and the given wrong-path length cap.
func WithWrongPathEmulation(cfg branch.Config, wpMaxLen int) Option {
	return func(f *Frontend) {
		f.pred = branch.New(cfg)
		f.wpMaxLen = wpMaxLen
	}
}

// WithMaxInstructions caps the number of correct-path instructions
// produced.
func WithMaxInstructions(n uint64) Option {
	return func(f *Frontend) { f.maxInsts = n }
}

// New creates a frontend over the CPU.
func New(cpu *functional.CPU, opts ...Option) *Frontend {
	f := &Frontend{cpu: cpu}
	for _, opt := range opts {
		opt(f)
	}
	return f
}

// Next produces the next correct-path dynamic instruction; ok is false
// at program end, the instruction cap, or on a functional error
// (retrievable via Err).
func (f *Frontend) Next() (trace.DynInst, bool) {
	var di trace.DynInst
	if !f.step(&di) {
		return trace.DynInst{}, false
	}
	return di, true
}

// NextBatch fills dst with successive correct-path records and returns
// how many were written; fewer than len(dst) — including 0 — means the
// stream ended. The record sequence is identical to repeated Next
// calls (queue.BatchProducer's contract).
func (f *Frontend) NextBatch(dst []trace.DynInst) int {
	n := 0
	for n < len(dst) && f.step(&dst[n]) {
		n++
	}
	return n
}

// step writes the next correct-path record into *di; false at program
// end, the instruction cap, or on a functional error.
func (f *Frontend) step(di *trace.DynInst) bool {
	if f.err != nil || f.cpu.Halted() {
		return false
	}
	if f.maxInsts > 0 && f.produced >= f.maxInsts {
		return false
	}
	if err := f.cpu.StepInto(di); err != nil {
		f.err = err
		return false
	}
	f.produced++

	if f.pred != nil && di.IsControl() {
		pred := f.pred.PredictAndUpdate(di.PC, di.In, di.Taken, di.NextPC)
		if pred.Mispredicted {
			f.wpEmulations++
			di.WP = f.emulateWP(pred.Target)
			f.wpEmulated += uint64(len(di.WP))
		}
	}
	return true
}

// emulateWP functionally emulates the wrong path from target into a
// recycled buffer and returns the records (nil when the path is empty).
// The path belongs to the frontend: the core reads it until it has
// finished the branch and then hands it back through ReleaseWP.
func (f *Frontend) emulateWP(target uint64) []trace.DynInst {
	if f.wpNext == nil {
		f.wpMu.Lock()
		if n := len(f.wpFree); n > 0 {
			f.wpNext = f.wpFree[n-1]
			f.wpFree[n-1] = nil
			f.wpFree = f.wpFree[:n-1]
		}
		f.wpMu.Unlock()
		if f.wpNext == nil {
			f.wpNext = make([]trace.DynInst, 0, f.wpMaxLen)
		}
	}
	wp := f.cpu.AppendWrongPath(f.wpNext, target, f.wpMaxLen)
	if len(wp) == 0 {
		return nil
	}
	f.wpNext = nil
	return wp
}

// ReleaseWP returns a path emulateWP produced once its reader is done
// with it; the buffer is reused for a later path, so the caller must
// not read wp afterwards. A path restored from a snapshot is an
// exact-length allocation: shorter than wpMaxLen it is not one of the
// frontend's buffers and is left to the GC. Safe to call from the
// consumer goroutine while the producer runs.
func (f *Frontend) ReleaseWP(wp []trace.DynInst) {
	if cap(wp) != f.wpMaxLen {
		return
	}
	f.wpMu.Lock()
	f.wpFree = append(f.wpFree, wp[:0])
	f.wpMu.Unlock()
}

// DropWPBuffers discards the recycled path buffers so a finished run
// holds none. Production must have stopped: paths still in flight are
// left to the GC, and a later emulation would allocate afresh.
func (f *Frontend) DropWPBuffers() {
	f.wpMu.Lock()
	f.wpFree = nil
	f.wpMu.Unlock()
	f.wpNext = nil
}

// Err returns the functional error that stopped production, if any.
func (f *Frontend) Err() error { return f.err }

// Produced returns the number of correct-path instructions emitted.
func (f *Frontend) Produced() uint64 { return f.produced }

// WPEmulations returns how many wrong paths were functionally emulated
// and how many wrong-path instructions that produced.
func (f *Frontend) WPEmulations() (paths, insts uint64) {
	return f.wpEmulations, f.wpEmulated
}

// CPU returns the underlying functional CPU.
func (f *Frontend) CPU() *functional.CPU { return f.cpu }
