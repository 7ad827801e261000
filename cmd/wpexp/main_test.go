package main

import (
	"bytes"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// runWpexp invokes the command in-process and returns (exit code,
// stdout, stderr).
func runWpexp(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestQuickFig1CachedRerun: a test-scale fig1 sweep on one worker per
// core exits clean and prints the report; a second sweep over the same
// -cache-dir, served from the stored cells, prints identical bytes.
func TestQuickFig1CachedRerun(t *testing.T) {
	cacheDir := t.TempDir()
	args := []string{"-exp", "fig1", "-quick", "-jobs", "0", "-cache-dir", cacheDir}
	code, first, stderr := runWpexp(t, args...)
	if code != exitClean {
		t.Fatalf("exit %d, want 0\nstderr: %s", code, stderr)
	}
	for _, want := range []string{"FIG 1", "nowp IPC", "wpemul IPC", "bfs", "mean"} {
		if !strings.Contains(first, want) {
			t.Errorf("report missing %q:\n%s", want, first)
		}
	}
	stored := 0
	err := filepath.WalkDir(cacheDir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			stored++
		}
		return err
	})
	if err != nil || stored == 0 {
		t.Fatalf("first sweep stored no cells under -cache-dir (err %v)", err)
	}

	code, again, stderr := runWpexp(t, args...)
	if code != exitClean {
		t.Fatalf("cached rerun exit %d, want 0\nstderr: %s", code, stderr)
	}
	if again != first {
		t.Errorf("cached rerun report differs\n--- first ---\n%s\n--- rerun ---\n%s", first, again)
	}
}

func TestUnknownFlagIsUsageError(t *testing.T) {
	if code, _, _ := runWpexp(t, "-no-such-flag"); code != exitUsage {
		t.Errorf("exit %d, want %d (usage)", code, exitUsage)
	}
}
