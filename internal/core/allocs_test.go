package core_test

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/frontend"
	"repro/internal/functional"
	"repro/internal/mem"
	"repro/internal/queue"
	"repro/internal/wrongpath"
)

// lcgLoop is a long mispredict-heavy loop: the LCG-driven branch keeps
// the convergence policy (reconstruction, windowed scans, RAS
// snapshots) on its hot path rather than letting the predictor learn
// the program away.
const lcgLoop = `
    li   t0, 2000000
    li   t1, 12345
    li   t2, 1103515245
loop:
    mul  t1, t1, t2
    addi t1, t1, 12345
    srli t3, t1, 16
    andi t3, t3, 1
    beqz t3, skip
    addi t4, t4, 1
skip:
    addi t0, t0, -1
    bnez t0, loop
    li a7, 0
    li a0, 0
    ecall
`

// TestRunSteadyStateAllocs pins the whole-pipeline steady state —
// functional step, frontend, queue lanes, code-cache hits, convergence
// reconstruction, recycled wpemul path buffers — at zero allocations
// per instruction. Run uses an absolute instruction threshold, so
// repeated calls with a growing cap continue the same simulation;
// everything that allocates (ring sizing, code-cache pages, policy
// scratch, the frontend's wrong-path free list) must settle during the
// warmup call.
func TestRunSteadyStateAllocs(t *testing.T) {
	for _, kind := range []wrongpath.Kind{wrongpath.NoWP, wrongpath.Conv, wrongpath.WPEmul} {
		t.Run(kind.String(), func(t *testing.T) {
			prog, err := asm.Assemble(lcgLoop)
			if err != nil {
				t.Fatal(err)
			}
			cfg := testConfig()
			cpu := functional.New(prog, mem.New(), 0x7000_0000)
			var opts []frontend.Option
			if kind == wrongpath.WPEmul {
				opts = append(opts, frontend.WithWrongPathEmulation(cfg.BranchPred, cfg.WPMaxLen()))
			}
			fe := frontend.New(cpu, opts...)
			q, err := queue.New(fe, 2*cfg.ROBSize+cfg.FrontendBuffer+64)
			if err != nil {
				t.Fatal(err)
			}
			c, err := core.New(cfg, q, wrongpath.New(kind))
			if err != nil {
				t.Fatal(err)
			}
			if kind == wrongpath.WPEmul {
				c.SetWPRelease(fe.ReleaseWP)
			}
			total := uint64(200_000)
			c.Run(total) // settle caches, ring size, and policy scratch
			avg := testing.AllocsPerRun(40, func() {
				total += 2_000
				c.Run(total)
			})
			if avg != 0 {
				t.Errorf("%v steady state allocates %.2f per 2000-instruction slice, want 0", kind, avg)
			}
			if paths, _ := fe.WPEmulations(); kind == wrongpath.WPEmul && paths == 0 {
				t.Fatal("no wrong paths emulated (the gate would not exercise recycling)")
			}
			if st := c.Stats(); st.Instructions < total-2_000 {
				t.Fatalf("simulation ended early at %d instructions (loop too short for the gate)", st.Instructions)
			}
		})
	}
}
