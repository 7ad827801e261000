package core

import (
	"bytes"
	"cmp"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/asm"
	"repro/internal/checkpoint"
	"repro/internal/frontend"
	"repro/internal/functional"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/queue"
	"repro/internal/trace"
	"repro/internal/wrongpath"
)

// fuClasses lists every class that owns functional units.
var fuClasses = []isa.Class{
	isa.ClassALU, isa.ClassMul, isa.ClassDiv, isa.ClassFPAdd,
	isa.ClassFPMul, isa.ClassFPDiv, isa.ClassLoad, isa.ClassStore,
	isa.ClassBranch,
}

// scanIssue is the linear-scan resource choice the heaps replaced: the
// first earliest-free port and unit, updated in place. It reports the
// issue and start cycles and whether a wrong-path probe was squashed.
type scanIssue struct {
	ports []uint64
	units [16][]uint64
}

func firstMin(v []uint64) int {
	mi := 0
	for i := 1; i < len(v); i++ {
		if v[i] < v[mi] {
			mi = i
		}
	}
	return mi
}

func (s *scanIssue) issue(ready uint64, cl isa.Class, lat uint64, pipelined, wrongPath bool, resolve uint64) (issue, start uint64, squashed bool) {
	pi := firstMin(s.ports)
	issue = maxU(ready, s.ports[pi])
	units := s.units[cl]
	ui := firstMin(units)
	start = maxU(issue, units[ui])
	if wrongPath && start >= resolve {
		return issue, start, true
	}
	s.ports[pi] = issue + 1
	if pipelined {
		units[ui] = start + 1
	} else {
		units[ui] = start + lat
	}
	return issue, start, false
}

func isMinHeap(h []uint64) bool {
	for i := 1; i < len(h); i++ {
		if h[(i-1)/2] > h[i] {
			return false
		}
	}
	return true
}

func sameMultiset(a, b []uint64) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

// TestIssueHeapMatchesLinearScan drives issueAndExecute with random
// core shapes — issue width 1–16, 1–8 units per class, mixed pipelined
// and unpipelined units, random latencies — and a random instruction
// mix including squashed wrong-path probes, against the linear scan.
// Every instruction must get the same issue and start cycles and the
// same completion cycle, and afterwards the heaps must hold the scan's
// multisets of free times, in heap order.
func TestIssueHeapMatchesLinearScan(t *testing.T) {
	none := isa.RegNone
	mix := []isa.Inst{
		{Op: isa.OpAdd, Rd: isa.A0, Rs1: isa.A1, Rs2: isa.A2, Rs3: none},
		{Op: isa.OpAddi, Rd: isa.A1, Rs1: isa.A0, Rs2: none, Rs3: none, Imm: 1},
		{Op: isa.OpMul, Rd: isa.A2, Rs1: isa.A0, Rs2: isa.A3, Rs3: none},
		{Op: isa.OpDiv, Rd: isa.A3, Rs1: isa.A2, Rs2: isa.A1, Rs3: none},
		{Op: isa.OpFadd, Rd: isa.F(1), Rs1: isa.F(2), Rs2: isa.F(3), Rs3: none},
		{Op: isa.OpFmul, Rd: isa.F(2), Rs1: isa.F(1), Rs2: isa.F(3), Rs3: none},
		{Op: isa.OpFdiv, Rd: isa.F(3), Rs1: isa.F(2), Rs2: isa.F(1), Rs3: none},
		{Op: isa.OpLd, Rd: isa.A4, Rs1: isa.A0, Rs2: none, Rs3: none},
		{Op: isa.OpSd, Rd: none, Rs1: isa.A1, Rs2: isa.A4, Rs3: none},
		{Op: isa.OpBne, Rd: none, Rs1: isa.A4, Rs2: isa.A0, Rs3: none, Target: 0x1000},
		{Op: isa.OpJal, Rd: isa.X0, Rs1: none, Rs2: none, Rs3: none, Target: 0x1000},
	}
	rng := rand.New(rand.NewPCG(13, 88))
	for trial := 0; trial < 300; trial++ {
		cfg := DefaultConfig()
		cfg.IssueWidth = 1 + rng.IntN(16)
		cfg.FUs = map[isa.Class]FUConfig{}
		for _, cl := range fuClasses {
			cfg.FUs[cl] = FUConfig{Count: 1 + rng.IntN(8), Latency: rng.IntN(24), Pipelined: rng.IntN(2) == 0}
		}
		c, err := New(cfg, nil, wrongpath.New(wrongpath.NoWP))
		if err != nil {
			t.Fatal(err)
		}
		ref := scanIssue{ports: make([]uint64, cfg.IssueWidth)}
		for _, cl := range fuClasses {
			ref.units[cl] = make([]uint64, cfg.FUs[cl].Count)
		}
		var disp uint64
		for i := 0; i < 2000; i++ {
			k := rng.IntN(len(mix))
			di := trace.DynInst{PC: 0x1000 + isa.InstBytes*uint64(k), In: mix[k]}
			m := c.code.InsertGet(di.PC, &di.In)
			disp += uint64(rng.IntN(3))
			wrongPath := rng.IntN(3) == 0
			resolve := disp + uint64(rng.IntN(48))

			ready := disp
			for s := uint8(0); s < m.NSrcs; s++ {
				ready = maxU(ready, c.regReady[m.Srcs[s]])
			}
			cl := fuClass(m.Class)
			lat := c.fuLat[cl]
			if m.IsLoad() {
				lat = uint64(c.hier.L1DHitLatency()) // no address: an assumed hit
			}
			issue := maxU(ready, c.issuePorts[0])
			start := maxU(issue, c.fuFree[cl][0])
			wantIssue, wantStart, squashed := ref.issue(ready, cl, lat, c.fuPipe[cl], wrongPath, resolve)
			if issue != wantIssue || start != wantStart {
				t.Fatalf("trial %d inst %d (%v): heap issue/start %d/%d, scan %d/%d",
					trial, i, di.In.Op, issue, start, wantIssue, wantStart)
			}
			want := start + lat
			if squashed {
				want = resolve
			}
			if done := c.issueAndExecute(&di, m, disp, wrongPath, resolve); done != want {
				t.Fatalf("trial %d inst %d (%v): done %d, want %d", trial, i, di.In.Op, done, want)
			}
			if !isMinHeap(c.issuePorts) || !sameMultiset(c.issuePorts, ref.ports) {
				t.Fatalf("trial %d inst %d: ports %v, scan %v", trial, i, c.issuePorts, ref.ports)
			}
			if !isMinHeap(c.fuFree[cl]) || !sameMultiset(c.fuFree[cl], ref.units[cl]) {
				t.Fatalf("trial %d inst %d: %v units %v, scan %v", trial, i, cl, c.fuFree[cl], ref.units[cl])
			}
		}
	}
}

// TestRestoreHeapifiesPortsAndUnits resumes from a snapshot whose port
// and FU arrays are not in heap order — as a writer that kept them
// unordered would leave them — and requires the run to end exactly as
// an uninterrupted one: same core counters, same cache and predictor
// state.
func TestRestoreHeapifiesPortsAndUnits(t *testing.T) {
	prog, err := asm.Assemble(`
    li   t0, 40000
    li   t1, 12345
    li   t2, 1103515245
    li   s0, 0x100000
loop:
    mul  t1, t1, t2
    addi t1, t1, 12345
    srli t3, t1, 16
    andi t4, t3, 4095
    slli t4, t4, 3
    add  t4, t4, s0
    ld   t5, 0(t4)
    div  t6, t1, t2
    add  t5, t5, t6
    sd   t5, 0(t4)
    andi t3, t3, 1
    beqz t3, skip
    addi a1, a1, 1
skip:
    addi t0, t0, -1
    bnez t0, loop
    li a7, 0
    li a0, 0
    ecall
`)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	build := func() (*Core, *queue.Queue, wrongpath.Policy) {
		fe := frontend.New(functional.New(prog, mem.New(), 0x7000_0000))
		q, err := queue.New(fe, 2*cfg.ROBSize+cfg.FrontendBuffer+64)
		if err != nil {
			t.Fatal(err)
		}
		pol := wrongpath.New(wrongpath.Conv)
		c, err := New(cfg, q, pol)
		if err != nil {
			t.Fatal(err)
		}
		return c, q, pol
	}
	const mid, total = 150_000, 400_000

	want, _, _ := build()
	want.Run(total)

	first, q, pol := build()
	first.Run(mid)
	// Descending order keeps each multiset and breaks heap order
	// wherever the free times differ.
	desc := func(h []uint64) { slices.SortFunc(h, func(a, b uint64) int { return cmp.Compare(b, a) }) }
	desc(first.issuePorts)
	for _, cl := range fuClasses {
		desc(first.fuFree[cl])
	}
	if isMinHeap(first.issuePorts) {
		t.Fatalf("ports %v still a heap: the snapshot would not test re-heapifying", first.issuePorts)
	}
	w := checkpoint.NewWriter()
	first.SaveState(w)
	r, err := checkpoint.Open(w.Finish())
	if err != nil {
		t.Fatal(err)
	}
	got, err := New(cfg, q, pol)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.RestoreState(r); err != nil {
		t.Fatal(err)
	}
	got.Run(total)

	if got.Stats() != want.Stats() {
		t.Errorf("resumed stats %+v\nuninterrupted %+v", got.Stats(), want.Stats())
	}
	snap := func(save func(*checkpoint.Writer)) []byte {
		w := checkpoint.NewWriter()
		save(w)
		return w.Finish()
	}
	if !bytes.Equal(snap(got.hier.SaveState), snap(want.hier.SaveState)) {
		t.Error("resumed cache hierarchy state differs from the uninterrupted run")
	}
	if !bytes.Equal(snap(got.bp.SaveState), snap(want.bp.SaveState)) {
		t.Error("resumed predictor state differs from the uninterrupted run")
	}
}
