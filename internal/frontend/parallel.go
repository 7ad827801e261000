package frontend

import (
	"context"
	"runtime/debug"
	"sync"

	"repro/internal/simerr"
	"repro/internal/trace"
)

// Parallel runs a producer (typically a *Frontend) in its own
// goroutine, handing instruction batches to the consumer through a
// buffered channel. This realizes the decoupling benefit the paper
// attributes to functional-first simulation: "the decoupling of the
// functional and performance simulator enables them to run in
// parallel", unlike integrated simulation's de-facto sequential
// emulate-then-time loop.
//
// The produced instruction sequence — and therefore every simulation
// statistic — is bit-identical to the synchronous mode; only host
// wall-clock time changes.
//
// Fault containment: a panic inside the wrapped producer is recovered
// in the goroutine, surfaced as a typed simerr.ErrWorkerPanic fault via
// Err, and the stream ends cleanly — the consumer's process never
// crashes. Interrupt unblocks both sides without waiting for the
// producer (the stall watchdog's abort path); Close is idempotent and
// safe after a producer panic.
type Parallel struct {
	src interface{ Next() (trace.DynInst, bool) }
	ch  chan []trace.DynInst
	// free returns fully consumed batches to the producer, which refills
	// them instead of allocating; at most depth+2 batches ever exist
	// (depth queued, one filling, one being read), so it never blocks.
	free     chan []trace.DynInst
	batch    int
	stop     chan struct{}
	done     <-chan struct{} // run context's Done; nil = never fires
	stopOnce sync.Once
	wg       sync.WaitGroup

	mu  sync.Mutex
	err error

	cur []trace.DynInst
	idx int
	eof bool
}

// DefaultBatch is the default producer batch size: large enough to
// amortize channel synchronization, small enough to keep the
// performance simulator from stalling at start-up.
const DefaultBatch = 256

// DefaultDepth is the default channel depth in batches. Depth × batch
// bounds the functional simulator's run-ahead, playing the role of the
// paper's "tens up to thousands" of queued instructions.
const DefaultDepth = 16

// NewParallelContext starts the producer goroutine, bound to a run
// context: every channel wait — producer sends and consumer receives
// alike — also selects on ctx.Done, so a consumer that stops without
// calling Close (a panic unwinding past the simulation loop, a canceled
// sweep cell) cannot strand the producer goroutine blocked on a full
// channel. Close is still required for a prompt, waited teardown; the
// context is the backstop that turns a missed Close from a permanent
// goroutine leak into an eventual exit. A nil ctx behaves like
// context.Background (no backstop).
func NewParallelContext(ctx context.Context, src interface {
	Next() (trace.DynInst, bool)
}, batch, depth int) *Parallel {
	if batch <= 0 {
		batch = DefaultBatch
	}
	if depth <= 0 {
		depth = DefaultDepth
	}
	p := &Parallel{
		src:   src,
		ch:    make(chan []trace.DynInst, depth),
		free:  make(chan []trace.DynInst, depth+2),
		batch: batch,
		stop:  make(chan struct{}),
	}
	if ctx != nil {
		p.done = ctx.Done()
	}
	p.wg.Add(1)
	go func() {
		// Deferred in reverse order: the recover runs first (capturing a
		// producer panic and recording the fault), then the channel close
		// publishes end-of-stream — the close happens-after the fault is
		// stored, so a consumer that saw EOF reads a settled Err.
		defer p.wg.Done()
		defer close(p.ch)
		defer func() {
			if rec := recover(); rec != nil {
				p.setErr(simerr.WorkerPanic("parallel frontend producer", rec, debug.Stack()))
			}
		}()
		if bs, ok := src.(interface {
			NextBatch([]trace.DynInst) int
		}); ok {
			// Batched fill: one producer call per channel batch instead of
			// one per record. 0 written means end of stream.
			for {
				buf := p.getBatch()[:batch]
				n := bs.NextBatch(buf)
				if n == 0 {
					return
				}
				select {
				case p.ch <- buf[:n]:
				case <-p.stop:
					return
				case <-p.done:
					return
				}
			}
		}
		buf := p.getBatch()
		for {
			di, ok := src.Next()
			if ok {
				buf = append(buf, di)
			}
			if len(buf) == batch || (!ok && len(buf) > 0) {
				select {
				case p.ch <- buf:
					buf = p.getBatch()
				case <-p.stop:
					return
				case <-p.done:
					return
				}
			}
			if !ok {
				return
			}
		}
	}()
	return p
}

// getBatch returns an empty batch with capacity p.batch: a recycled
// one when the consumer has handed one back, a new one otherwise.
func (p *Parallel) getBatch() []trace.DynInst {
	select {
	case b := <-p.free:
		return b
	default:
		return make([]trace.DynInst, 0, p.batch)
	}
}

// recv receives the next channel batch into p.cur, first handing the
// exhausted current batch back to the producer (its records have all
// been copied out). ok is false at end of stream or on stop.
func (p *Parallel) recv() bool {
	if p.cur != nil {
		select {
		case p.free <- p.cur[:0]:
		default:
		}
		p.cur, p.idx = nil, 0
	}
	select {
	case batch, ok := <-p.ch:
		if !ok {
			p.eof = true
			return false
		}
		p.cur, p.idx = batch, 0
		return true
	case <-p.stop:
	case <-p.done:
	}
	p.eof = true
	return false
}

func (p *Parallel) setErr(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
}

// Err reports a fault that ended the stream early — currently only a
// recovered producer panic (errors.Is(err, simerr.ErrWorkerPanic)).
// It is meaningful once Next has reported end-of-stream or Close has
// returned.
func (p *Parallel) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// Next implements queue.Producer from the consumer side. It also
// returns end-of-stream when Interrupt has fired, so a consumer never
// stays blocked on a producer that has stopped making progress.
func (p *Parallel) Next() (trace.DynInst, bool) {
	for p.idx >= len(p.cur) {
		if p.eof || !p.recv() {
			return trace.DynInst{}, false
		}
	}
	di := p.cur[p.idx]
	p.idx++
	return di, true
}

// NextBatch implements queue.BatchProducer from the consumer side: it
// fills dst from the current channel batch, blocking for the next one
// while dst has room, and returns short only at end-of-stream — the
// same record sequence (and blocking behavior) as a Next loop.
func (p *Parallel) NextBatch(dst []trace.DynInst) int {
	n := 0
	for n < len(dst) {
		for p.idx >= len(p.cur) {
			if p.eof || !p.recv() {
				return n
			}
		}
		k := copy(dst[n:], p.cur[p.idx:])
		p.idx += k
		n += k
	}
	return n
}

// Interrupt asks both sides of the channel to stop: the producer's next
// send aborts, a consumer blocked in Next unblocks with end-of-stream,
// and a wrapped producer that itself supports Interrupt (a blocked
// source) is released. It is idempotent, safe from any goroutine, and
// does not wait — the stall watchdog calls it from outside the
// simulation goroutine.
func (p *Parallel) Interrupt() {
	p.stopOnce.Do(func() { close(p.stop) })
	if i, ok := p.src.(interface{ Interrupt() }); ok {
		i.Interrupt()
	}
}

// Close stops the producer goroutine and waits for it to exit. It is
// idempotent and safe to call after the producer has already finished
// or panicked (the recovered panic is reported by Err, and the drain
// below cannot hang because the producer's goroutine has exited).
// A producer goroutine blocked *inside* an uninterruptible src.Next
// would make the wg.Wait below hang; blocked sources must implement
// Interrupt (faultinject.Freezer does) to be releasable.
func (p *Parallel) Close() {
	p.Interrupt()
	// Drain so a producer blocked on send can observe stop/finish. After
	// the goroutine exits the channel is closed, so ranging terminates —
	// including on a second Close.
	for range p.ch {
	}
	p.wg.Wait()
	// Drop the recycled batches with the current one: their stale
	// records still point at emulated wrong paths. The producer has
	// exited, so nothing else reads p.free.
	p.cur, p.idx = nil, 0
	p.free = nil
	p.eof = true
}
