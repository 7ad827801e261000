package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/functional"
	"repro/internal/isa"
	"repro/internal/resultcache"
	"repro/internal/trace"
)

// The leaf timings run one layer alone, outside any session, on inputs
// taken from the workload itself. They are estimates: the cache and
// branch replays see only the correct-path stream, in program order,
// without the core's timing or any wrong-path traffic.

// leafReps is how many times each leaf timing repeats; the median is
// reported.
const leafReps = 3

// memOp is one correct-path data access.
type memOp struct {
	addr  uint64
	store bool
}

// ctrlOp is one correct-path control instruction and its outcome.
type ctrlOp struct {
	pc, next uint64
	in       isa.Inst
	taken    bool
}

// stream is the correct-path load/store and control stream of the
// input's instruction budget.
type stream struct {
	mem  []memOp
	ctrl []ctrlOp
}

// stepFresh steps a fresh copy of the input for up to its instruction
// budget, calling visit (when non-nil) on every retired record, and
// returns the number of instructions stepped and the time it took.
func (in *simInput) stepFresh(visit func(di *trace.DynInst)) (uint64, time.Duration, error) {
	inst, err := in.instance()
	if err != nil {
		return 0, 0, err
	}
	cpu := functional.New(inst.Prog, inst.Mem, inst.StackTop)
	var n uint64
	start := time.Now()
	for n < in.maxInsts && !cpu.Halted() {
		di, err := cpu.Step()
		if err != nil {
			return n, time.Since(start), fmt.Errorf("functional step %d: %w", n, err)
		}
		n++
		if visit != nil {
			visit(&di)
		}
		if di.Exit {
			break
		}
	}
	return n, time.Since(start), nil
}

// stepNs times the isolated functional.CPU.Step loop on the input.
func (in *simInput) stepNs() (float64, error) {
	var xs []float64
	for i := 0; i < leafReps; i++ {
		n, took, err := in.stepFresh(nil)
		if err != nil {
			return 0, err
		}
		xs = append(xs, float64(took.Nanoseconds())/float64(n))
	}
	return median(xs), nil
}

// record steps the input once and keeps its correct-path memory and
// control streams.
func (in *simInput) record() (*stream, error) {
	st := &stream{}
	_, _, err := in.stepFresh(func(di *trace.DynInst) {
		switch op := di.In.Op; {
		case op.IsMem():
			st.mem = append(st.mem, memOp{addr: di.MemAddr, store: op.IsStore()})
		case op.IsControl():
			st.ctrl = append(st.ctrl, ctrlOp{pc: di.PC, next: di.NextPC, in: di.In, taken: di.Taken})
		}
	})
	return st, err
}

// cacheLoadNs replays the recorded loads and stores through a fresh
// default hierarchy and returns the time per access.
func (st *stream) cacheLoadNs() float64 {
	if len(st.mem) == 0 {
		return 0
	}
	var xs []float64
	for i := 0; i < leafReps; i++ {
		h := cache.NewHierarchy(cache.DefaultHierarchyConfig())
		start := time.Now()
		for j, op := range st.mem {
			if op.store {
				h.Store(op.addr, uint64(j), false)
			} else {
				h.Load(op.addr, uint64(j), false)
			}
		}
		xs = append(xs, float64(time.Since(start).Nanoseconds())/float64(len(st.mem)))
	}
	return median(xs)
}

// predictUpdateNs replays the recorded control stream through a fresh
// default predictor and returns the time per prediction.
func (st *stream) predictUpdateNs() float64 {
	if len(st.ctrl) == 0 {
		return 0
	}
	var xs []float64
	for i := 0; i < leafReps; i++ {
		u := branch.New(branch.DefaultConfig())
		start := time.Now()
		for _, c := range st.ctrl {
			u.PredictAndUpdate(c.pc, c.in, c.taken, c.next)
		}
		xs = append(xs, float64(time.Since(start).Nanoseconds())/float64(len(st.ctrl)))
	}
	return median(xs)
}

// cacheBody is one canonical result body and its content address.
type cacheBody struct {
	fp   string
	body []byte
}

// resultCacheTimes stores every body in a fresh persistent result cache
// under dir and reads each back, returning the median Put and Get time
// in microseconds. The Get is the memory-tier probe a cache hit makes.
func resultCacheTimes(dir string, bodies []cacheBody) (putUs, getUs float64, err error) {
	if len(bodies) == 0 {
		return 0, 0, fmt.Errorf("no result bodies to store")
	}
	defer os.RemoveAll(dir)
	c, err := resultcache.New(filepath.Join(dir, "cache"), 0)
	if err != nil {
		return 0, 0, err
	}
	var puts, gets []float64
	for _, b := range bodies {
		start := time.Now()
		if err := c.Put(b.fp, b.body); err != nil {
			return 0, 0, err
		}
		puts = append(puts, float64(time.Since(start).Nanoseconds())/1e3)
	}
	for _, b := range bodies {
		start := time.Now()
		got, hit, _ := c.Get(b.fp)
		gets = append(gets, float64(time.Since(start).Nanoseconds())/1e3)
		if !hit || string(got) != string(b.body) {
			return 0, 0, fmt.Errorf("result cache lost the entry for %s", b.fp)
		}
	}
	return median(puts), median(gets), nil
}
