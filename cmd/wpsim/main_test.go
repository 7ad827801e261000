package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runWpsim invokes the command in-process and returns (exit code,
// stdout, stderr).
func runWpsim(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func quickArgs(extra ...string) []string {
	return append([]string{"-suite", "gap", "-bench", "bfs", "-n", "1024", "-degree", "4"}, extra...)
}

func TestCleanRunExitsZero(t *testing.T) {
	code, out, stderr := runWpsim(t, quickArgs("-wp", "conv")...)
	if code != exitClean {
		t.Fatalf("exit %d, want 0\nstderr: %s", code, stderr)
	}
	if !strings.Contains(out, "workload            gap/bfs") || !strings.Contains(out, "IPC") {
		t.Errorf("report missing expected lines:\n%s", out)
	}
}

// TestDegradedRunFlushesObservability is the regression test for the
// output-loss bug: a run that exits annotated (code 3) after a ladder
// descent must still write -metrics-out and -trace-out. The -inject
// drill makes the descent deterministic.
func TestDegradedRunFlushesObservability(t *testing.T) {
	dir := t.TempDir()
	metricsOut := filepath.Join(dir, "metrics.json")
	traceOut := filepath.Join(dir, "trace.json")
	code, out, stderr := runWpsim(t, quickArgs(
		"-wp", "wpemul", "-degrade", "-inject", "panic@5000",
		"-metrics-out", metricsOut, "-trace-out", traceOut)...)
	if code != exitAnnotated {
		t.Fatalf("exit %d, want %d (annotated)\nstderr: %s", code, exitAnnotated, stderr)
	}
	if !strings.Contains(out, "DEGRADED") || !strings.Contains(out, "ran as conv (requested wpemul)") {
		t.Errorf("degraded run not annotated in the report:\n%s", out)
	}
	data, err := os.ReadFile(metricsOut)
	if err != nil {
		t.Fatalf("degraded exit lost -metrics-out: %v", err)
	}
	var metrics []map[string]any
	if err := json.Unmarshal(data, &metrics); err != nil || len(metrics) == 0 {
		t.Errorf("metrics file malformed (err %v, %d entries)", err, len(metrics))
	}
	var spans any
	traceData, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatalf("degraded exit lost -trace-out: %v", err)
	}
	if err := json.Unmarshal(traceData, &spans); err != nil {
		t.Errorf("trace file malformed: %v", err)
	}
}

// TestHardFailureFlushesObservability: even an exit-1 path reached
// after Start (here: an unknown technique) flushes the metrics file.
func TestHardFailureFlushesObservability(t *testing.T) {
	metricsOut := filepath.Join(t.TempDir(), "metrics.json")
	code, _, stderr := runWpsim(t, quickArgs("-wp", "quantum", "-metrics-out", metricsOut)...)
	if code != exitFailure {
		t.Fatalf("exit %d, want 1\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "unknown wrong-path technique") {
		t.Errorf("stderr missing diagnosis: %s", stderr)
	}
	if _, err := os.Stat(metricsOut); err != nil {
		t.Fatalf("hard-failure exit lost -metrics-out: %v", err)
	}
}

// TestFlushFailureHardensExit: a clean simulation whose metrics cannot
// be written must not exit 0 — silent observability loss is the bug
// this PR removes.
func TestFlushFailureHardensExit(t *testing.T) {
	metricsOut := filepath.Join(t.TempDir(), "missing-dir", "metrics.json")
	code, _, stderr := runWpsim(t, quickArgs("-wp", "conv", "-metrics-out", metricsOut)...)
	if code != exitFailure {
		t.Fatalf("exit %d, want 1 when the metrics flush fails\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "observability") {
		t.Errorf("stderr missing flush diagnosis: %s", stderr)
	}
}

func TestInjectValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"without degrade", quickArgs("-wp", "conv", "-inject", "panic@100")},
		{"bad spec", quickArgs("-wp", "conv", "-degrade", "-inject", "explode@100")},
		{"bad position", quickArgs("-wp", "conv", "-degrade", "-inject", "panic@soon")},
		{"with checkpoint dir", quickArgs("-wp", "conv", "-degrade", "-inject", "panic@100", "-checkpoint-dir", "/tmp/x")},
		// The -wp all comparison builds its own sources; a drill there
		// would never fire.
		{"with wp all", quickArgs("-wp", "all", "-degrade", "-inject", "panic@5000")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if code, _, _ := runWpsim(t, tc.args...); code != exitUsage {
				t.Errorf("exit %d, want %d (usage)", code, exitUsage)
			}
		})
	}
}

// TestCompareAllAnnotatedExit: -wp all with an induced per-cell fault
// (a 1ns watchdog budget trips instantly) prints the full table and
// exits annotated, and the metrics still flush.
func TestCompareAllAnnotatedExit(t *testing.T) {
	metricsOut := filepath.Join(t.TempDir(), "metrics.json")
	code, out, stderr := runWpsim(t, quickArgs(
		"-wp", "all", "-jobs", "2", "-watchdog", "1ns", "-metrics-out", metricsOut)...)
	if code != exitAnnotated {
		t.Fatalf("exit %d, want %d\nstdout: %s\nstderr: %s", code, exitAnnotated, out, stderr)
	}
	if !strings.Contains(out, "FAULT(") {
		t.Errorf("table missing FAULT annotations:\n%s", out)
	}
	if _, err := os.Stat(metricsOut); err != nil {
		t.Fatalf("annotated -wp all exit lost -metrics-out: %v", err)
	}
}

// withoutWall drops the host-dependent wall-time line from a report.
func withoutWall(report string) string {
	var keep []string
	for _, line := range strings.Split(report, "\n") {
		if !strings.HasPrefix(line, "wall time") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
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

// checkpointArgs runs 50k instructions with snapshots at 20k and 40k,
// so a rerun resumes mid-run from the 40k snapshot.
func checkpointArgs(dir string, extra ...string) []string {
	return quickArgs(append([]string{"-max-insts", "50000", "-checkpoint-dir", dir, "-checkpoint-every", "20000"}, extra...)...)
}

// TestCheckpointRerunResumes: rerunning the same command over the same
// -checkpoint-dir resumes from the newest snapshot — no flag asks for
// it — and prints the first run's statistics.
func TestCheckpointRerunResumes(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ckpt")
	code, first, stderr := runWpsim(t, checkpointArgs(ckpt, "-wp", "conv")...)
	if code != exitClean {
		t.Fatalf("first run exit %d\nstderr: %s", code, stderr)
	}
	metricsOut := filepath.Join(dir, "metrics.json")
	code, again, stderr := runWpsim(t, checkpointArgs(ckpt, "-wp", "conv", "-metrics-out", metricsOut)...)
	if code != exitClean {
		t.Fatalf("rerun exit %d\nstderr: %s", code, stderr)
	}
	if n := snapshotsRestored(t, metricsOut); n != 1 {
		t.Fatalf("rerun restored %d snapshots, want 1", n)
	}
	if withoutWall(again) != withoutWall(first) {
		t.Errorf("resumed report differs from the first run\n--- first ---\n%s\n--- rerun ---\n%s", first, again)
	}
}

// TestCheckpointTechniqueMismatch: rerunning over another technique's
// snapshots exits 1 naming both techniques instead of reporting the
// other technique's numbers; with -degrade the rerun starts from zero
// and prints a fresh run's statistics.
func TestCheckpointTechniqueMismatch(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "ckpt")
	if code, _, stderr := runWpsim(t, checkpointArgs(ckpt, "-wp", "conv")...); code != exitClean {
		t.Fatalf("conv run exit %d\nstderr: %s", code, stderr)
	}
	code, _, stderr := runWpsim(t, checkpointArgs(ckpt, "-wp", "instrec")...)
	if code != exitFailure {
		t.Fatalf("mismatched rerun exit %d, want %d\nstderr: %s", code, exitFailure, stderr)
	}
	if !strings.Contains(stderr, "written by technique conv, cannot resume it as instrec") {
		t.Errorf("stderr does not name both techniques: %s", stderr)
	}

	code, laddered, stderr := runWpsim(t, checkpointArgs(ckpt, "-wp", "instrec", "-degrade")...)
	if code != exitClean {
		t.Fatalf("laddered rerun exit %d\nstderr: %s", code, stderr)
	}
	code, fresh, stderr := runWpsim(t, quickArgs("-wp", "instrec", "-max-insts", "50000")...)
	if code != exitClean {
		t.Fatalf("fresh run exit %d\nstderr: %s", code, stderr)
	}
	if withoutWall(laddered) != withoutWall(fresh) {
		t.Errorf("laddered rerun differs from a fresh instrec run\n--- laddered ---\n%s\n--- fresh ---\n%s", laddered, fresh)
	}
}
