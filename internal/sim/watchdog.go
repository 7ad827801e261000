package sim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/queue"
	"repro/internal/simerr"
	"repro/internal/trace"
)

// Interrupter is the optional capability a producer or Source exposes
// to be unblocked from another goroutine: Interrupt must be idempotent,
// non-blocking, and cause pending and future Next calls to report
// end-of-stream. frontend.Parallel and faultinject.Freezer implement
// it; the stall watchdog uses it to abort a wedged run.
type Interrupter interface {
	Interrupt()
}

// interrupt forwards an Interrupt request to v if it supports it.
func interrupt(v any) {
	if i, ok := v.(Interrupter); ok {
		i.Interrupt()
	}
}

// progressTap wraps the queue's producer side to expose production
// progress (instruction count and last PC) to the watchdog goroutine
// through atomics. It sits between the Source and the queue, so it
// observes exactly what the queue ingests regardless of frontend kind.
//
// The tap deliberately does NOT implement queue.BatchProducer: a
// batched forward could only account records after the whole call
// returned, so a producer wedging mid-batch would leave the stall
// snapshot reporting a stale count and PC. Watchdog-armed runs
// therefore refill per record (consumer-side lane batching and
// convergence windows still apply); unwatched runs keep the fully
// batched producer path.
type progressTap struct {
	src      queue.Producer
	produced atomic.Uint64
	lastPC   atomic.Uint64
}

func (t *progressTap) Next() (trace.DynInst, bool) {
	di, ok := t.src.Next()
	if ok {
		t.produced.Add(1)
		t.lastPC.Store(di.PC)
	}
	return di, ok
}

// watchdog aborts a run that stops making progress. It samples the
// producer tap and the queue's pop counter once per budget interval; a
// full interval with neither side advancing is a stall, reported as a
// typed simerr.ErrStall fault with a diagnostic snapshot, after which
// the producer is interrupted so the simulation goroutine unwinds to a
// clean (early) end of stream.
//
// Abort requires the source chain to be interruptible (Interrupter); a
// producer blocked in uninterruptible code is still *detected* — the
// fault is recorded — but the run can only unwind once that call
// returns. A consumer-side stall that never touches the queue again is
// likewise detected but not preemptible: Go offers no safe way to stop
// the simulation goroutine from outside.
type watchdog struct {
	fault atomic.Pointer[simerr.Fault]
	done  chan struct{}
	ack   chan struct{}
	once  sync.Once
}

// startWatchdog launches the sampling goroutine. stop must be called at
// least once; it waits for the goroutine to exit so the fault value is
// settled when the session assembles its Result.
func startWatchdog(clk AfterClock, budget time.Duration, tap *progressTap, q *queue.Queue, src Source, wp string, view *obs.View) *watchdog {
	w := &watchdog{done: make(chan struct{}), ack: make(chan struct{})}
	go func() {
		defer close(w.ack)
		lastProduced := tap.produced.Load()
		lastPopped := q.Popped()
		for {
			select {
			case <-w.done:
				return
			case <-clk.After(budget):
			}
			produced, popped := tap.produced.Load(), q.Popped()
			view.WatchdogSample(produced, popped)
			if produced != lastProduced || popped != lastPopped {
				lastProduced, lastPopped = produced, popped
				continue
			}
			view.WatchdogStall(tap.lastPC.Load(), produced, popped)
			w.fault.Store(&simerr.Fault{
				Kind:      simerr.ErrStall,
				Op:        "stall watchdog",
				Technique: wp,
				PC:        tap.lastPC.Load(),
				Fetched:   produced,
				Consumed:  popped,
				Err: fmt.Errorf("neither queue side advanced within %v (occupancy %d)",
					budget, produced-popped),
			})
			interrupt(src)
			return
		}
	}()
	return w
}

// stop terminates the watchdog (if it has not already fired) and waits
// for its goroutine; repeated calls are no-ops.
func (w *watchdog) stop() {
	w.once.Do(func() {
		close(w.done)
		<-w.ack
	})
}

// Fault returns the recorded stall fault, or nil. Valid after stop.
func (w *watchdog) Fault() error {
	if f := w.fault.Load(); f != nil {
		return f
	}
	return nil
}

// watchdogClock selects the timer for the watchdog: the configured
// Clock when it supports After, the wall clock otherwise.
func (c Config) watchdogClock() AfterClock {
	if ac, ok := c.clock().(AfterClock); ok {
		return ac
	}
	return wallClock{}
}
