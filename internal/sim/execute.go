package sim

import (
	"errors"
	"fmt"
	"runtime/debug"

	"repro/internal/simerr"
	"repro/internal/workloads"
	"repro/internal/wrongpath"
)

// DegradePolicy configures the graceful-degradation ladder: on a
// recoverable fault, a job is re-run one technique rung down
// (wpemul→conv→instrec→nowp, see wrongpath.Downgrade) instead of
// failing the whole sweep. The zero value disables the ladder.
type DegradePolicy struct {
	// MaxRetries bounds the ladder descents per job; each retry costs
	// one full re-simulation. 0 disables degradation entirely.
	MaxRetries int
}

// Enabled reports whether the ladder is armed.
func (p DegradePolicy) Enabled() bool { return p.MaxRetries > 0 }

// Recoverable reports whether a fault class is survivable one rung down
// the ladder: a capability the lower technique does not need
// (ErrUnsupported), a wedged run-ahead the lower technique does not
// exercise (ErrStall), or a contained crash worth one more attempt
// (ErrWorkerPanic). Trace corruption is NOT recoverable by re-running —
// the same bytes fail again — and is handled by keeping the valid
// prefix instead (see Execute).
func Recoverable(err error) bool {
	return errors.Is(err, simerr.ErrUnsupported) ||
		errors.Is(err, simerr.ErrStall) ||
		errors.Is(err, simerr.ErrWorkerPanic)
}

// Instances is the opener for a workload whose first instance the
// caller already built (to read its SuggestedMaxInsts before
// configuring): the first attempt consumes first, and every retry gets
// a fresh w.Build(), because a run consumes its instance's state.
func Instances(w workloads.Workload, first *workloads.Instance) func(Config) (Source, error) {
	return func(c Config) (Source, error) {
		inst := first
		first = nil
		if inst == nil {
			var err error
			if inst, err = w.Build(); err != nil {
				return nil, fmt.Errorf("sim: rebuilding %s/%s: %w", w.Suite, w.Name, err)
			}
		}
		return NewFunctionalSource(c, inst), nil
	}
}

// Execute runs one simulation job; every entry point (Run, RunKinds,
// the CLIs, the serving layer, the experiment runner) goes through it.
// open builds the Source for each attempt — a run consumes its source —
// and wrappers (fault injectors, stream filters) compose around it.
// Execute is the one place that opens sources, decides whether to
// resume, contains panics, runs the degradation ladder, and publishes
// metrics, exactly once per returned Result.
//
// Resume rule: with checkpointing enabled, an attempt first restores
// the newest snapshot in cfg.CheckpointDir; a missing or empty
// directory runs from zero. A snapshot written under another technique
// restores only on a ladder retry (the intended descent). A snapshot
// that does not restore is the returned error when the ladder is
// disarmed; on a ladder rung the attempt runs from zero instead —
// degradation never fails on its own recovery data.
//
// With the ladder disarmed (cfg.Degrade), Execute makes one attempt:
// faults stay in Result.Err (a corrupt trace keeps its valid prefix
// there), and a panic returns a typed simerr.ErrWorkerPanic. Armed, a
// recoverable fault re-runs the job one rung down, at most
// cfg.Degrade.MaxRetries times. The final Result records the descent:
// WP is the rung that ran, RequestedWP the rung asked for,
// Degraded/DegradeFault the annotation (matching simerr.ErrDegraded and
// the original fault class). Trace corruption is kept rather than
// re-run: the valid prefix is a complete partial simulation, so it is
// returned annotated. Unrecoverable faults, exhausted retries, and a
// floor with no rung below return the typed fault. Fault-free runs are
// bit-identical either way.
//
// With Config.Metrics set, failed rungs sample live distributions under
// their own technique label but contribute nothing to run totals, and
// every descent increments sim_degrade_retries_total under the
// requested technique.
func Execute(cfg Config, open func(Config) (Source, error)) (*Result, error) {
	res, err := attempt(cfg, open, false)
	fault := runFault(res, err)
	if fault == nil || !cfg.Degrade.Enabled() {
		if err == nil {
			cfg.publish(res)
		}
		return res, err
	}
	requested := cfg.WP
	for retries := 0; ; retries++ {
		if errors.Is(fault, simerr.ErrTraceCorrupt) && res != nil {
			res.RequestedWP = requested
			res.Degraded = true
			res.DegradeFault = simerr.Degraded(requested.String(), cfg.WP.String()+" (partial prefix)", fault)
			cfg.publish(res)
			return res, nil
		}
		if retries >= cfg.Degrade.MaxRetries || !Recoverable(fault) {
			return nil, fault
		}
		down, ok := wrongpath.Downgrade(cfg.WP)
		if !ok {
			return nil, fault
		}
		cfg.noteRetry(requested.String())
		cfg.WP = down
		res, err = attempt(cfg, open, true)
		if next := runFault(res, err); next != nil {
			fault = next
			continue
		}
		res.RequestedWP = requested
		res.Degraded = true
		res.DegradeFault = simerr.Degraded(requested.String(), down.String(), fault)
		cfg.publish(res)
		return res, nil
	}
}

// runFault extracts the typed fault of an attempt: a returned error, or
// a classified simerr fault the run recorded in Result.Err. A plain
// functional-simulation error in Result.Err is not a fault — it is the
// pre-existing "program ended abnormally" channel and passes through
// untouched.
func runFault(res *Result, err error) error {
	if err != nil {
		return err
	}
	if res != nil && res.Err != nil {
		var f *simerr.Fault
		if errors.As(res.Err, &f) {
			return res.Err
		}
	}
	return nil
}

// closeQuiet closes a source, containing a panic from a close path that
// the original fault already broke.
func closeQuiet(src Source) {
	defer func() { _ = recover() }()
	src.Close()
}

// attempt runs one rung: open the source, wire the session, resume per
// Execute's rule (retry marks a ladder descent), run. A panic anywhere
// in the attempt — a synchronous producer fault, a policy bug — is
// recovered into a typed ErrWorkerPanic and the source is torn down.
func attempt(cfg Config, open func(Config) (Source, error), retry bool) (res *Result, err error) {
	var src Source
	defer func() {
		if rec := recover(); rec != nil {
			if src != nil {
				closeQuiet(src)
			}
			res, err = nil, simerr.WorkerPanic("simulation run", rec, debug.Stack())
		}
	}()
	build := func() (*Session, error) {
		var berr error
		src, berr = open(cfg)
		if berr != nil {
			return nil, berr
		}
		s, berr := NewSession(cfg, src)
		if berr != nil {
			closeQuiet(src)
			src = nil
			return nil, berr
		}
		return s, nil
	}
	s, err := build()
	if err != nil {
		return nil, err
	}
	if err := s.resume(retry); err != nil {
		// A failed restore leaves the session partially overwritten.
		closeQuiet(src)
		src = nil
		if !cfg.Degrade.Enabled() {
			return nil, err
		}
		if s, err = build(); err != nil {
			return nil, err
		}
	}
	return s.Run(), nil
}
