package server

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// On-disk layout under Config.StateDir — the daemon's durable state:
//
//	job-000042/
//	    spec.json      the JobSpec, written at admission
//	    result.json    the terminal Status + canonical result bytes
//	    ckpt/          the sim checkpoint chain (ckpt-*.wpsnap)
//
// A job directory holding a spec but no result is unfinished work: the
// next daemon run re-admits it and RunOrResume picks the newest
// snapshot in ckpt/, so a SIGTERM'd or crashed daemon resumes every
// in-flight and queued job bit-identically.

const jobDirPrefix = "job-"

// jobID renders the canonical id for a sequence number.
func jobID(seq int) string { return fmt.Sprintf("%s%06d", jobDirPrefix, seq) }

// parseJobSeq inverts jobID strictly: the suffix must be all digits
// and the parsed sequence must render back to exactly the same name.
// A lenient Sscanf("%d") here once admitted "job-12abc" as sequence
// 12 — colliding with job-000012 in the job table — and "job-0000012"
// as a second job-000012; the round-trip rejects both.
func parseJobSeq(name string) (int, bool) {
	digits := strings.TrimPrefix(name, jobDirPrefix)
	if digits == "" {
		return 0, false
	}
	for i := 0; i < len(digits); i++ {
		if digits[i] < '0' || digits[i] > '9' {
			return 0, false
		}
	}
	seq, err := strconv.Atoi(digits)
	if err != nil || jobID(seq) != name {
		return 0, false
	}
	return seq, true
}

// jobDir returns the job's state directory ("" when the server is
// ephemeral).
func (s *Server) jobDir(id string) string {
	if s.cfg.StateDir == "" {
		return ""
	}
	return filepath.Join(s.cfg.StateDir, id)
}

// persistSpec writes the job's spec at admission time (a no-op for an
// ephemeral server).
func (s *Server) persistSpec(j *job) error {
	dir := s.jobDir(j.id)
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(j.spec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "spec.json"), append(data, '\n'), 0o644)
}

// persistResult writes the terminal documents: the status in
// result.json and — when the job produced one — the canonical result
// bytes, verbatim, in canonical.json (embedding them as a RawMessage
// inside the indented result.json would re-indent them and break byte
// identity across a restart). The canonical file goes first so a crash
// between the writes leaves the job unfinished, never
// finished-without-result. Drain-interrupted jobs are deliberately
// never persisted — the absence of result.json is what re-admits them
// on restart.
func (s *Server) persistResult(j *job) error {
	canonical, _, st := j.snapshot()
	return s.writeResult(j.id, st, canonical)
}

// writeResult writes the terminal documents of job id from st and
// canonical (see persistResult). The run-completion path calls it
// before publishing st, so a job is never seen terminal without them.
func (s *Server) writeResult(id string, st Status, canonical []byte) error {
	dir := s.jobDir(id)
	if dir == "" {
		return nil
	}
	if canonical != nil {
		if err := os.WriteFile(filepath.Join(dir, "canonical.json"), canonical, 0o644); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "result.json"), append(data, '\n'), 0o644)
}

// removeJobDir rolls back a job directory created for an admission
// that ultimately failed.
func (s *Server) removeJobDir(id string) {
	if dir := s.jobDir(id); dir != "" {
		_ = os.RemoveAll(dir)
	}
}

// loadState scans the state directory and rebuilds the job table:
// terminal jobs are restored read-only from their result documents,
// unfinished jobs (spec without result) are returned as pending, in
// submission order, for re-admission. The returned maxSeq keeps new
// ids unique across daemon runs.
func (s *Server) loadState() (pending []*job, maxSeq int, err error) {
	if s.cfg.StateDir == "" {
		return nil, 0, nil
	}
	if err := os.MkdirAll(s.cfg.StateDir, 0o755); err != nil {
		return nil, 0, err
	}
	ents, err := os.ReadDir(s.cfg.StateDir)
	if err != nil {
		return nil, 0, err
	}
	var loaded []*job
	for _, e := range ents {
		name := e.Name()
		if !e.IsDir() || !strings.HasPrefix(name, jobDirPrefix) {
			continue
		}
		seq, ok := parseJobSeq(name)
		if !ok {
			continue
		}
		specData, err := os.ReadFile(filepath.Join(s.cfg.StateDir, name, "spec.json"))
		if err != nil {
			continue // a crash between MkdirAll and the spec write; nothing to recover
		}
		var spec JobSpec
		if err := json.Unmarshal(specData, &spec); err != nil {
			return nil, 0, fmt.Errorf("server: corrupt spec in %s: %w", name, err)
		}
		j := newJob(name, seq, spec)
		if seq > maxSeq {
			maxSeq = seq
		}
		if resData, err := os.ReadFile(filepath.Join(s.cfg.StateDir, name, "result.json")); err == nil {
			var st Status
			if err := json.Unmarshal(resData, &st); err != nil {
				return nil, 0, fmt.Errorf("server: corrupt result in %s: %w", name, err)
			}
			// Only a done job may carry canonical bytes; a canceled or
			// failed record next to a canonical.json (a crash relic)
			// must not start serving a result it never reported.
			var canonical []byte
			if st.State == StateDone {
				if data, err := os.ReadFile(filepath.Join(s.cfg.StateDir, name, "canonical.json")); err == nil {
					canonical = data
				}
			}
			j.finish(st, canonical)
			j.resumed = st.Resumed
			j.cacheDisp = st.Cache
			j.dedupedOf = st.DedupedOf
			j.ckptInsts.Store(st.CheckpointInsts)
		} else {
			// Re-admission. A canonical.json without result.json is the
			// relic of a crash between persistResult's two writes; drop
			// it now, or a re-run that ends without a result (canceled,
			// failed) would leave it behind for a later daemon run to
			// serve as if the job had completed.
			_ = os.Remove(filepath.Join(s.cfg.StateDir, name, "canonical.json"))
			j.interrupted = true // mid-flight (or still queued) when the last daemon run ended
			pending = append(pending, j)
		}
		loaded = append(loaded, j)
	}
	sort.Slice(loaded, func(a, b int) bool { return loaded[a].seq < loaded[b].seq })
	sort.Slice(pending, func(a, b int) bool { return pending[a].seq < pending[b].seq })
	for _, j := range loaded {
		s.jobs[j.id] = j
		s.order = append(s.order, j)
	}
	return pending, maxSeq, nil
}
