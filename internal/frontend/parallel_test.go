package frontend_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/frontend"
	"repro/internal/functional"
	"repro/internal/mem"
	"repro/internal/trace"
)

type countProducer struct {
	n   int
	max int
}

func (p *countProducer) Next() (trace.DynInst, bool) {
	if p.n >= p.max {
		return trace.DynInst{}, false
	}
	d := trace.DynInst{Seq: uint64(p.n)}
	p.n++
	return d, true
}

func TestParallelDeliversEverythingInOrder(t *testing.T) {
	for _, total := range []int{0, 1, 255, 256, 257, 5000} {
		p := frontend.NewParallel(&countProducer{max: total}, 64, 4)
		for i := 0; i < total; i++ {
			d, ok := p.Next()
			if !ok {
				t.Fatalf("total=%d: stream ended at %d", total, i)
			}
			if d.Seq != uint64(i) {
				t.Fatalf("total=%d: out of order at %d: got %d", total, i, d.Seq)
			}
		}
		if _, ok := p.Next(); ok {
			t.Fatalf("total=%d: extra instruction", total)
		}
		// Next after EOF stays false.
		if _, ok := p.Next(); ok {
			t.Fatal("Next after EOF succeeded")
		}
		p.Close()
	}
}

func TestParallelCloseEarly(t *testing.T) {
	// A producer far larger than the channel capacity: Close must
	// unblock and stop the goroutine even though the consumer quit
	// early.
	p := frontend.NewParallel(&countProducer{max: 1_000_000}, 64, 2)
	for i := 0; i < 10; i++ {
		if _, ok := p.Next(); !ok {
			t.Fatal("early end")
		}
	}
	p.Close()
	if _, ok := p.Next(); ok {
		t.Error("Next after Close succeeded")
	}
	// Close is idempotent.
	p.Close()
}

// TestParallelCancelNoLeak is the goroutine-leak regression test for
// the consumer-stops-without-Close hazard: the producer goroutine sits
// blocked on a full channel, the consumer abandons it (no Close — the
// unwinding path a cancelled sweep cell takes), and the run context is
// the only stop signal. The goroutine must exit.
func TestParallelCancelNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	p := frontend.NewParallelContext(ctx, &countProducer{max: 1_000_000}, 64, 2)
	for i := 0; i < 10; i++ {
		if _, ok := p.Next(); !ok {
			t.Fatal("early end")
		}
	}
	// Abandon the consumer side entirely; cancellation alone must
	// unblock the producer.
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("producer goroutine leaked after cancellation: %d goroutines, started with %d",
				runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
	// The consumer side also observes cancellation instead of blocking.
	drained := 0
	for {
		if _, ok := p.Next(); !ok {
			break
		}
		if drained++; drained > 64*2+64 {
			t.Fatal("consumer kept receiving after cancellation beyond buffered batches")
		}
	}
}

func TestParallelDefaults(t *testing.T) {
	p := frontend.NewParallel(&countProducer{max: 10}, 0, 0)
	n := 0
	for {
		if _, ok := p.Next(); !ok {
			break
		}
		n++
	}
	if n != 10 {
		t.Errorf("delivered %d, want 10", n)
	}
	p.Close()
}

func TestParallelMatchesSequential(t *testing.T) {
	// The parallel wrapper must deliver exactly the frontend's stream.
	seqFE := frontend.New(newCPU(t))
	var want []trace.DynInst
	for {
		d, ok := seqFE.Next()
		if !ok {
			break
		}
		want = append(want, d)
	}

	par := frontend.NewParallel(frontend.New(newCPU(t)), 32, 4)
	defer par.Close()
	for i := range want {
		got, ok := par.Next()
		if !ok {
			t.Fatalf("parallel stream ended at %d/%d", i, len(want))
		}
		if got.Seq != want[i].Seq || got.PC != want[i].PC || got.NextPC != want[i].NextPC {
			t.Fatalf("parallel diverges at %d: %+v vs %+v", i, got, want[i])
		}
	}
	if _, ok := par.Next(); ok {
		t.Error("parallel stream longer than sequential")
	}
}

// longLoop runs far past what the allocation gate below consumes.
const longLoop = `
    li   t0, 10000000
loop:
    addi t1, t1, 3
    andi t2, t1, 4
    beqz t2, skip
    addi t3, t3, 1
skip:
    addi t0, t0, -1
    bnez t0, loop
    li a7, 0
    li a0, 0
    ecall
`

// TestParallelSteadyStateAllocs: once the channel's batches are in
// circulation, the producer refills batches the consumer has handed
// back, so streaming allocates nothing — through the batched fill
// (a *Frontend producer, NextBatch consumer) and the per-record one
// (a plain Next producer and consumer).
func TestParallelSteadyStateAllocs(t *testing.T) {
	prog, err := asm.Assemble(longLoop)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("batched", func(t *testing.T) {
		p := frontend.NewParallel(frontend.New(functional.New(prog, mem.New(), 0)), 0, 0)
		defer p.Close()
		dst := make([]trace.DynInst, 2000)
		short := 0
		pull := func() {
			if p.NextBatch(dst) != len(dst) {
				short++
			}
		}
		for i := 0; i < 20; i++ {
			pull() // put every batch into circulation
		}
		if avg := testing.AllocsPerRun(50, pull); avg != 0 {
			t.Errorf("steady state allocates %.2f per 2000-record pull, want 0", avg)
		}
		if short > 0 {
			t.Fatal("stream ended inside the gate")
		}
	})
	t.Run("per-record", func(t *testing.T) {
		p := frontend.NewParallel(&countProducer{max: 1 << 30}, 0, 0)
		defer p.Close()
		short := 0
		pull := func() {
			for i := 0; i < 2000; i++ {
				if _, ok := p.Next(); !ok {
					short++
				}
			}
		}
		for i := 0; i < 20; i++ {
			pull()
		}
		if avg := testing.AllocsPerRun(50, pull); avg != 0 {
			t.Errorf("steady state allocates %.2f per 2000-record pull, want 0", avg)
		}
		if short > 0 {
			t.Fatal("stream ended inside the gate")
		}
	})
}
