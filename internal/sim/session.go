package sim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/queue"
	"repro/internal/simerr"
	"repro/internal/wrongpath"
)

// Session is one wired-up simulation: a Source feeding the decoupling
// queue, a wrong-path policy, and the out-of-order core, constructed
// from a Config in exactly one place. Run/RunTrace are thin wrappers
// over it; construct a Session directly to supply a custom Source.
type Session struct {
	cfg    Config
	src    Source
	tap    *progressTap // non-nil iff cfg.Watchdog > 0
	queue  *queue.Queue
	policy wrongpath.Policy
	core   *core.Core
	view   *obs.View // nil when observability is disabled

	// restored marks a session whose state was overwritten by a snapshot
	// (Restore); Run then skips the warmup phase, which the snapshot has
	// already passed through. restoredInsts is the snapshot's retired
	// instruction count — the checkpoint grid resumes from there.
	restored      bool
	restoredInsts uint64
}

// NewSession validates the configuration against the source's
// capabilities and builds queue → policy → core. On error nothing is
// retained; the caller still owns (and must Close) the source. A
// capability mismatch is a typed simerr.ErrUnsupported fault — the
// recoverable class the degradation ladder retries a rung down.
func NewSession(cfg Config, src Source) (*Session, error) {
	if err := cfg.Core.Validate(); err != nil {
		return nil, err
	}
	if cfg.WP == wrongpath.WPEmul && !src.SupportsWPEmul() {
		return nil, simerr.Unsupported("configuring session",
			fmt.Errorf("sim: wrong-path emulation requires a live functional frontend, not a trace (paper §III-B)"))
	}
	if cfg.checkpointEnabled() {
		if cfg.ParallelFrontend {
			return nil, simerr.Config("configuring session",
				fmt.Errorf("sim: checkpointing and the parallel frontend are mutually exclusive (results are bit-identical either way; drop one)"))
		}
		if _, err := checkpointState(src); err != nil {
			return nil, err
		}
	}
	s := &Session{cfg: cfg, src: src}
	var producer queue.Producer = src
	if cfg.Watchdog > 0 {
		// Interpose the progress tap so the watchdog goroutine can
		// sample production without touching the (single-consumer) queue
		// internals.
		s.tap = &progressTap{src: src}
		producer = s.tap
	}
	q, err := queue.New(producer, cfg.lookahead())
	if err != nil {
		return nil, err
	}
	s.queue = q
	if cfg.PolicyFactory != nil {
		s.policy = cfg.PolicyFactory()
	} else {
		s.policy = wrongpath.New(cfg.WP)
	}
	c, err := core.New(cfg.Core, s.queue, s.policy)
	if err != nil {
		return nil, err
	}
	s.core = c
	if cfg.WP == wrongpath.WPEmul {
		// Recycle each emulated path once the core has finished its
		// branch, whichever policy (PolicyFactory included) reads it.
		c.SetWPRelease(src.ReleaseWP)
	}
	if p, ok := src.(interface{ Program() *isa.Program }); ok {
		// Predecode the static program into the code cache so first
		// deliveries and wrong-path walks find their decode records
		// already classified. Lookup semantics — and therefore results —
		// are unchanged: predecoded entries still miss until delivered.
		c.CodeCache().Predecode(p.Program())
	}
	if s.view = cfg.view(); s.view != nil {
		s.core.SetObs(s.view)
	}
	return s, nil
}

// Run executes the warmup and measured simulation, closes the source,
// and collects the Result. It is single-shot: the session's pipeline
// state is consumed by the run.
//
// With Config.Watchdog set, a stall watchdog samples both sides of the
// decoupling queue while the run is in flight; if it fires, the source
// is interrupted, the run unwinds to an early end of stream, and
// Result.Err carries the typed simerr.ErrStall diagnostic. An idle
// watchdog leaves the Result bit-identical to an unwatched run.
func (s *Session) Run() *Result {
	clk := s.cfg.clock()
	var wd *watchdog
	if s.cfg.Watchdog > 0 {
		wd = startWatchdog(s.cfg.watchdogClock(), s.cfg.Watchdog, s.tap, s.queue, s.src, s.cfg.WP.String(), s.view)
	}
	ctx := s.cfg.Ctx
	var cn *canceler
	if ctx != nil {
		cn = startCanceler(ctx, s.src)
	}
	var ck *checkpointer
	var ckErr error
	if s.cfg.checkpointEnabled() {
		ck, ckErr = newCheckpointer(s, s.src)
	}
	if ck != nil || ctx != nil {
		// The lane hook is the deterministic supervision point: snapshots
		// are written exactly at lane boundaries (the only instant the
		// core's transient state is empty), and cancellation is honored
		// there even when the source never blocks (so the canceler's
		// interrupt alone would not stop it).
		s.core.SetLaneHook(func() bool {
			if ck != nil {
				ck.onLane()
			}
			return ctx == nil || ctx.Err() == nil
		})
	}
	warmup := s.cfg.WarmupInsts
	if s.restored {
		// The snapshot was taken inside the measured phase: warmup (and
		// its statistics reset) already happened before it was written.
		warmup = 0
	}
	start := clk.Now()
	stats := s.core.RunWarmup(warmup, s.cfg.MaxInsts)
	wall := clk.Now().Sub(start)
	if wd != nil {
		wd.stop()
	}
	if cn != nil {
		cn.stop()
	}
	s.src.Close()

	h := s.core.Hierarchy()
	res := &Result{
		WP:               s.cfg.WP,
		RequestedWP:      s.cfg.WP,
		Core:             stats,
		Policy:           *s.policy.Stats(),
		L1I:              h.L1I().Stats,
		L1D:              h.L1D().Stats,
		L2:               h.L2().Stats,
		LLC:              h.LLC().Stats,
		MemAccesses:      h.MemAccesses,
		WrongMemAccesses: h.WrongMemAccesses,
		Wall:             wall,
	}
	if h.ITLB() != nil {
		res.ITLB = h.ITLB().Stats
	}
	if h.DTLB() != nil {
		res.DTLB = h.DTLB().Stats
	}
	s.src.Collect(res)
	if res.Err == nil {
		if ckErr != nil {
			// Checkpointing could not even start; the run itself is
			// complete, but the cell's crash-safety promise was broken.
			res.Err = ckErr
		} else if ck != nil && ck.err != nil {
			res.Err = ck.err
		}
	}
	if wd != nil {
		if ferr := wd.Fault(); ferr != nil {
			// The stall is the root cause of whatever truncated state
			// Collect reported; it wins the Err slot.
			res.Err = ferr
		}
	}
	if ctx != nil && ctx.Err() != nil {
		// Cancellation outranks everything: whatever else broke, the
		// operator asked the run to stop, and the ladder must not retry.
		res.Err = &simerr.Fault{
			Kind:      simerr.ErrCanceled,
			Op:        "simulation run",
			Technique: s.cfg.WP.String(),
			Consumed:  stats.Instructions,
			Err:       ctx.Err(),
		}
	}
	return res
}
