package server

import (
	"context"
	"encoding/json"
	"sync"
	"sync/atomic"
)

// Job states. A job moves queued → running → one of the terminal
// states; a daemon drain moves a running job back to queued (with
// Interrupted set) so the next daemon run resumes it from its
// checkpoint chain.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"     // result available; ExitCode 0 (clean) or 3 (annotated)
	StateFailed   = "failed"   // hard failure, no result; ExitCode 1
	StateCanceled = "canceled" // operator cancel or timeout; ExitCode 3
)

// Exit codes mirror the CLI convention (README "Exit codes"): 0 clean,
// 1 hard failure, 3 completed-but-annotated (degraded, faulted or
// canceled). exitPending marks a job that has not reached a terminal
// state.
const (
	exitClean     = 0
	exitFailure   = 1
	exitAnnotated = 3
	exitPending   = -1
)

// Cache dispositions (Status.Cache, the X-Wpserved-Cache header).
const (
	cacheHit       = "hit"
	cacheMiss      = "miss"
	cacheCoalesced = "coalesced"
)

// Status is the GET /jobs/{id} document.
type Status struct {
	ID    string  `json:"id"`
	State string  `json:"state"`
	Spec  JobSpec `json:"spec"`
	// ExitCode mirrors the CLI exit-code convention once the job is
	// terminal (0 clean, 1 hard failure, 3 annotated); -1 before that.
	ExitCode int `json:"exit_code"`
	// Degraded jobs report their descent: the requested technique, the
	// rung that actually ran, and the one-line fault that forced it.
	Degraded    bool   `json:"degraded,omitempty"`
	RequestedWP string `json:"requested_wp,omitempty"`
	RanWP       string `json:"ran_wp,omitempty"`
	Fault       string `json:"fault,omitempty"`
	// Error is the hard-failure or cancellation reason.
	Error string `json:"error,omitempty"`
	// Resumed marks a job this daemon run restored from a snapshot.
	Resumed bool `json:"resumed,omitempty"`
	// Interrupted marks a job a drain stopped mid-run; it is queued for
	// resume on the next daemon run.
	Interrupted bool `json:"interrupted,omitempty"`
	// CheckpointInsts is the retired-instruction count of the newest
	// snapshot — the job's crash-safe progress watermark.
	CheckpointInsts uint64 `json:"checkpoint_insts,omitempty"`
	// WallNS is the host wall-clock of the run, for capacity planning;
	// it is never part of the canonical result bytes. Cache-served and
	// coalesced jobs report 0: they did not run.
	WallNS int64 `json:"wall_ns,omitempty"`
	// Cache is the job's cache disposition: "hit" (served from the
	// result cache without running), "coalesced" (deduplicated onto an
	// identical in-flight submission), or "miss" (ran the simulation).
	// Empty when the cache is disabled.
	Cache string `json:"cache,omitempty"`
	// DedupedOf names the leader job a coalesced submission shares its
	// execution — and its canonical bytes, verbatim — with.
	DedupedOf string `json:"deduped_of,omitempty"`
}

// job is the in-memory lifecycle record of one submission.
type job struct {
	id   string
	seq  int
	spec JobSpec
	fp   string // spec.Fingerprint(), immutable

	ckptInsts atomic.Uint64 // updated from sim.Config.OnCheckpoint

	// followers are the coalesced submissions waiting on this job's
	// execution. Guarded by Server.mu (not j.mu): the list is only
	// touched at submit and settle time, both under the server lock.
	followers []*job

	mu          sync.Mutex
	state       string
	cancel      context.CancelFunc // non-nil while running
	userCancel  bool
	interrupted bool
	resumed     bool
	exitCode    int
	errMsg      string
	fault       string
	degraded    bool
	requestedWP string
	ranWP       string
	wallNS      int64
	cacheDisp   string // "hit" | "miss" | "coalesced"; "" = cache disabled
	dedupedOf   string
	canonical   json.RawMessage // CanonicalResult bytes once a result exists
}

func newJob(id string, seq int, spec JobSpec) *job {
	return &job{id: id, seq: seq, spec: spec, fp: spec.Fingerprint(),
		state: StateQueued, exitCode: exitPending}
}

// start transitions queued → running and installs the cancel hook; it
// reports false (and leaves the job alone) when the job was canceled
// while still queued.
func (j *job) start(cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.interrupted = false
	j.cancel = cancel
	return true
}

// requeue moves a drain-interrupted running job back to queued: its
// spec and checkpoint chain are on disk, so the next daemon run
// resumes it.
func (j *job) requeue() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = StateQueued
	j.interrupted = true
	j.cancel = nil
	j.exitCode = exitPending
}

// finish records a terminal state: the terminal fields of st (state,
// exit code, descent, error, wall time) and the canonical result bytes
// (nil when there is no result).
func (j *job) finish(st Status, canonical json.RawMessage) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = st.State
	j.exitCode = st.ExitCode
	j.degraded = st.Degraded
	j.requestedWP = st.RequestedWP
	j.ranWP = st.RanWP
	j.fault = st.Fault
	j.errMsg = st.Error
	j.wallNS = st.WallNS
	j.canonical = canonical
	j.cancel = nil
}

// notePersistError records that a terminal job's result documents
// could not be written. The in-memory record stands; the job re-runs
// on the next daemon start (spec without result), which is safe —
// reruns are bit-identical by construction.
func (j *job) notePersistError(err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.errMsg = "persist: " + err.Error()
}

// requestCancel implements the cancel endpoint: a queued job becomes
// terminal immediately, a running one has its context canceled (the
// completion path records the terminal state). The return reports
// whether anything changed.
func (j *job) requestCancel() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateQueued:
		j.userCancel = true
		j.state = StateCanceled
		j.exitCode = exitAnnotated
		j.errMsg = "canceled before start"
		return true
	case StateRunning:
		j.userCancel = true
		if j.cancel != nil {
			j.cancel()
		}
		return true
	default:
		return false
	}
}

func (j *job) isUserCanceled() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.userCancel
}

func (j *job) setResumed() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.resumed = true
}

// status snapshots the job document.
func (j *job) status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

// statusLocked renders the document; the caller holds j.mu.
func (j *job) statusLocked() Status {
	return Status{
		ID:              j.id,
		State:           j.state,
		Spec:            j.spec,
		ExitCode:        j.exitCode,
		Degraded:        j.degraded,
		RequestedWP:     j.requestedWP,
		RanWP:           j.ranWP,
		Fault:           j.fault,
		Error:           j.errMsg,
		Resumed:         j.resumed,
		Interrupted:     j.interrupted,
		CheckpointInsts: j.ckptInsts.Load(),
		WallNS:          j.wallNS,
		Cache:           j.cacheDisp,
		DedupedOf:       j.dedupedOf,
	}
}

// result returns the canonical result bytes and the host wall time, or
// nil when no result exists (yet).
func (j *job) result() (json.RawMessage, int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.canonical, j.wallNS
}

// snapshot returns the canonical bytes, wall time, and status document
// from one locked read — the result endpoint's view. Reading the bytes
// and the status separately would let the job change state in between
// and pair a body with a contradicting status.
func (j *job) snapshot() (json.RawMessage, int64, Status) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.canonical, j.wallNS, j.statusLocked()
}

// cachedDoc is the slice of the canonical result document a job served
// from the cache needs to rebuild its status fields; the full sim
// payload stays opaque (the bytes are served verbatim).
type cachedDoc struct {
	WP           string `json:"wp"`
	RequestedWP  string `json:"requested_wp"`
	Degraded     bool   `json:"degraded"`
	DegradeFault string `json:"degrade_fault"`
	Err          string `json:"err"`
}

// serveFromCache completes a still-queued job with cached canonical
// bytes: the status fields are rebuilt from the document's own header
// fields, so a cache-served job is indistinguishable from a run —
// except for its Cache disposition and zero wall time. Returns false
// (job untouched) when the job already left the queued state or the
// bytes do not parse as a canonical result document.
func (j *job) serveFromCache(canonical []byte, disp string) bool {
	var doc cachedDoc
	if err := json.Unmarshal(canonical, &doc); err != nil {
		return false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateDone
	j.exitCode = exitClean
	if doc.Degraded || doc.Err != "" {
		j.exitCode = exitAnnotated
	}
	j.canonical = canonical
	j.degraded = doc.Degraded
	j.requestedWP = doc.RequestedWP
	j.ranWP = doc.WP
	j.fault = doc.DegradeFault
	j.errMsg = doc.Err
	j.wallNS = 0
	j.cacheDisp = disp
	j.interrupted = false
	return true
}

// serveShared completes a coalesced follower with its leader's
// terminal document: the canonical bytes verbatim, the derived fields
// copied. Returns false when the follower was canceled while waiting.
func (j *job) serveShared(canonical json.RawMessage, lead Status) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateDone
	j.exitCode = lead.ExitCode
	j.canonical = canonical
	j.degraded = lead.Degraded
	j.requestedWP = lead.RequestedWP
	j.ranWP = lead.RanWP
	j.fault = lead.Fault
	j.errMsg = lead.Error
	j.wallNS = 0
	j.interrupted = false
	return true
}

// stillQueued reports whether the job is still waiting (a follower can
// be canceled while its leader runs).
func (j *job) stillQueued() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state == StateQueued
}

// promote clears a follower's coalesced identity when it becomes a
// leader itself (its original leader ended with no result to share).
func (j *job) promote() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.dedupedOf = ""
	if j.cacheDisp == cacheCoalesced {
		j.cacheDisp = cacheMiss
	}
}
