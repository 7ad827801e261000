package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runWptrace(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// recordSmallTrace records a short gap/bfs trace and returns its path.
func recordSmallTrace(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bfs.trace")
	code, out, stderr := runWptrace(t, "-record", "-suite", "gap", "-bench", "bfs", "-max-insts", "20000", "-o", path)
	if code != exitClean {
		t.Fatalf("record exit %d\nstdout: %s\nstderr: %s", code, out, stderr)
	}
	return path
}

func TestRecordAndCleanReplay(t *testing.T) {
	trace := recordSmallTrace(t)
	code, out, stderr := runWptrace(t, "-replay", trace, "-wp", "conv")
	if code != exitClean {
		t.Fatalf("replay exit %d\nstderr: %s", code, stderr)
	}
	if !strings.Contains(out, "technique      conv") || !strings.Contains(out, "IPC") {
		t.Errorf("replay report incomplete:\n%s", out)
	}
}

// TestDegradedReplayFlushesObservability is the wptrace side of the
// output-loss regression: wpemul on a trace frontend is deterministic
// grounds for a ladder descent (paper §III-B), the replay exits
// annotated, and -metrics-out must still be written.
func TestDegradedReplayFlushesObservability(t *testing.T) {
	trace := recordSmallTrace(t)
	metricsOut := filepath.Join(t.TempDir(), "metrics.json")
	code, out, stderr := runWptrace(t,
		"-replay", trace, "-wp", "wpemul", "-degrade", "-metrics-out", metricsOut)
	if code != exitAnnotated {
		t.Fatalf("exit %d, want %d (annotated)\nstdout: %s\nstderr: %s", code, exitAnnotated, out, stderr)
	}
	if !strings.Contains(out, "DEGRADED") || !strings.Contains(out, "requested wpemul") {
		t.Errorf("descent not annotated in the report:\n%s", out)
	}
	if fi, err := os.Stat(metricsOut); err != nil || fi.Size() == 0 {
		t.Fatalf("degraded replay lost -metrics-out (err %v)", err)
	}
}

func TestReplayHardFailureFlushesObservability(t *testing.T) {
	metricsOut := filepath.Join(t.TempDir(), "metrics.json")
	code, _, stderr := runWptrace(t, "-replay", filepath.Join(t.TempDir(), "missing.trace"),
		"-wp", "conv", "-metrics-out", metricsOut)
	if code != exitFailure {
		t.Fatalf("exit %d, want 1\nstderr: %s", code, stderr)
	}
	if _, err := os.Stat(metricsOut); err != nil {
		t.Fatalf("hard-failure replay lost -metrics-out: %v", err)
	}
}

func TestUsageErrors(t *testing.T) {
	if code, _, _ := runWptrace(t); code != exitUsage {
		t.Errorf("no mode: exit %d, want %d", code, exitUsage)
	}
	if code, _, _ := runWptrace(t, "-bogus"); code != exitUsage {
		t.Errorf("bad flag: exit %d, want %d", code, exitUsage)
	}
}

// snapshotsRestored sums checkpoint_restores_total in a -metrics-out
// file.
func snapshotsRestored(t *testing.T, path string) uint64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var metrics []struct {
		Name  string `json:"name"`
		Value uint64 `json:"value"`
	}
	if err := json.Unmarshal(data, &metrics); err != nil {
		t.Fatal(err)
	}
	var n uint64
	for _, m := range metrics {
		if strings.HasPrefix(m.Name, "checkpoint_restores_total") {
			n += m.Value
		}
	}
	return n
}

// TestCheckpointReplayRerunResumes: replaying again over the same
// -checkpoint-dir resumes from the newest snapshot — no flag asks for
// it — and prints the first replay's statistics.
func TestCheckpointReplayRerunResumes(t *testing.T) {
	trace := recordSmallTrace(t)
	dir := t.TempDir()
	args := []string{"-replay", trace, "-wp", "conv",
		"-checkpoint-dir", filepath.Join(dir, "ckpt"), "-checkpoint-every", "8000"}
	code, first, stderr := runWptrace(t, args...)
	if code != exitClean {
		t.Fatalf("first replay exit %d\nstderr: %s", code, stderr)
	}
	metricsOut := filepath.Join(dir, "metrics.json")
	code, again, stderr := runWptrace(t, append(args, "-metrics-out", metricsOut)...)
	if code != exitClean {
		t.Fatalf("rerun exit %d\nstderr: %s", code, stderr)
	}
	restored := snapshotsRestored(t, metricsOut)
	if restored != 1 {
		t.Fatalf("rerun restored %d snapshots, want 1", restored)
	}
	withoutWall := func(report string) string {
		var keep []string
		for _, line := range strings.Split(report, "\n") {
			if !strings.HasPrefix(line, "wall time") {
				keep = append(keep, line)
			}
		}
		return strings.Join(keep, "\n")
	}
	if withoutWall(again) != withoutWall(first) {
		t.Errorf("resumed replay differs from the first\n--- first ---\n%s\n--- rerun ---\n%s", first, again)
	}
}

// TestReplayAllHonorsCheckpointAndDegrade: -wp all configures every
// cell exactly as a single replay. With -checkpoint-dir each technique
// snapshots into its own subdirectory and a re-run resumes every cell
// to the same table; with -degrade a truncated trace keeps each cell's
// valid prefix, annotated DEGRADED.
func TestReplayAllHonorsCheckpointAndDegrade(t *testing.T) {
	trace := recordSmallTrace(t)
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ckpt")
	args := []string{"-replay", trace, "-wp", "all", "-jobs", "2",
		"-checkpoint-dir", ckpt, "-checkpoint-every", "8000"}
	code, first, stderr := runWptrace(t, args...)
	if code != exitClean {
		t.Fatalf("first replay exit %d\nstdout: %s\nstderr: %s", code, first, stderr)
	}
	for _, k := range []string{"nowp", "instrec", "conv", "convres"} {
		snaps, err := filepath.Glob(filepath.Join(ckpt, k, "*.wpsnap"))
		if err != nil || len(snaps) == 0 {
			t.Errorf("%s wrote no snapshots under %s (err %v)", k, filepath.Join(ckpt, k), err)
		}
	}
	metricsOut := filepath.Join(dir, "metrics.json")
	code, again, stderr := runWptrace(t, append(args, "-metrics-out", metricsOut)...)
	if code != exitClean {
		t.Fatalf("rerun exit %d\nstderr: %s", code, stderr)
	}
	restored := snapshotsRestored(t, metricsOut)
	if restored != 4 {
		t.Errorf("rerun restored %d snapshots, want one per technique (4)", restored)
	}
	// The wall column is host time; compare everything before it.
	withoutWall := func(table string) string {
		var keep []string
		for _, line := range strings.Split(table, "\n") {
			if f := strings.Fields(line); len(f) == 6 {
				line = strings.Join(f[:5], " ")
			}
			keep = append(keep, line)
		}
		return strings.Join(keep, "\n")
	}
	if withoutWall(again) != withoutWall(first) {
		t.Errorf("resumed table differs from the first\n--- first ---\n%s\n--- rerun ---\n%s", first, again)
	}

	raw, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(dir, "cut.trace")
	if err := os.WriteFile(cut, raw[:len(raw)-3], 0o644); err != nil { // mid-record: records are >= 8 bytes
		t.Fatal(err)
	}
	code, out, stderr := runWptrace(t, "-replay", cut, "-wp", "all", "-degrade")
	if code != exitAnnotated {
		t.Fatalf("degraded replay exit %d, want %d\nstdout: %s\nstderr: %s", code, exitAnnotated, out, stderr)
	}
	if n := strings.Count(out, "DEGRADED"); n != 4 {
		t.Errorf("%d cells annotated DEGRADED, want 4:\n%s", n, out)
	}
}
