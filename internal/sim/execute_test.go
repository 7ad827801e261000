package sim

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/queue"
	"repro/internal/simerr"
	"repro/internal/workloads"
	"repro/internal/workloads/gap"
	"repro/internal/wrongpath"
)

// checkpointed returns cfg with snapshots every 8k instructions into
// dir.
func checkpointed(cfg Config, dir string) Config {
	cfg.CheckpointDir = dir
	cfg.CheckpointEvery = 8_000
	return cfg
}

// killAtSnapshot runs cfg over a fresh instance of w and cancels it at
// its n-th snapshot write, leaving a resumable chain in cfg's
// checkpoint directory.
func killAtSnapshot(t *testing.T, cfg Config, w workloads.Workload, n int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.Ctx = ctx
	seen := 0
	cfg.OnCheckpoint = func(uint64, string) {
		if seen++; seen == n {
			cancel()
		}
	}
	res, err := Run(cfg, w.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res.Err, simerr.ErrCanceled) {
		t.Fatalf("killed run Err = %v, want ErrCanceled", res.Err)
	}
}

// restores reads the checkpoint_restores_total counter for technique k.
func restores(reg *obs.Registry, k wrongpath.Kind) uint64 {
	return reg.Counter(obs.Key("checkpoint_restores_total", "gap/bfs", k.String())).Value()
}

// TestExecuteResumesNewestCheckpoint: with no resume flag anywhere, a
// run over a directory holding a killed run's snapshots restores the
// newest one and finishes bit-identical to an uninterrupted run.
func TestExecuteResumesNewestCheckpoint(t *testing.T) {
	w := gap.BFS(gap.TestParams())
	cfg := chaosConfig(wrongpath.Conv, 64)
	base, err := Run(cfg, w.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	rcfg := checkpointed(cfg, t.TempDir())
	killAtSnapshot(t, rcfg, w, 2)
	reg := obs.NewRegistry()
	rcfg.Metrics, rcfg.ObsLabel = reg, "gap/bfs"
	resumed, err := Run(rcfg, w.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	if got := restores(reg, wrongpath.Conv); got != 1 {
		t.Fatalf("checkpoint_restores_total = %d, want 1 (the rerun did not resume)", got)
	}
	if !reflect.DeepEqual(stripWall(base), stripWall(resumed)) {
		t.Errorf("resumed result diverges from uninterrupted run\nbase:    %+v\nresumed: %+v", stripWall(base), stripWall(resumed))
	}
}

// TestResumeRejectsOtherTechnique: a plain instrec run over a directory
// of conv snapshots must fail with a typed ErrConfig naming both
// techniques, not report conv's numbers under the instrec label.
func TestResumeRejectsOtherTechnique(t *testing.T) {
	w := gap.BFS(gap.TestParams())
	dir := t.TempDir()
	if _, err := Run(checkpointed(chaosConfig(wrongpath.Conv, 64), dir), w.MustBuild()); err != nil {
		t.Fatal(err)
	}
	cfg := checkpointed(chaosConfig(wrongpath.InstRec, 64), dir)
	res, err := Execute(cfg, Instances(w, w.MustBuild()))
	if !errors.Is(err, simerr.ErrConfig) {
		t.Fatalf("err = %v (result %v), want ErrConfig", err, res != nil)
	}
	if msg := err.Error(); !strings.Contains(msg, "technique conv") || !strings.Contains(msg, "as instrec") {
		t.Errorf("mismatch error does not name both techniques: %v", err)
	}
}

// TestResumeLadderRunsOtherTechniqueFromZero: with the ladder armed, the
// same mismatch on the first attempt runs from zero, so the result
// equals a fresh instrec run.
func TestResumeLadderRunsOtherTechniqueFromZero(t *testing.T) {
	w := gap.BFS(gap.TestParams())
	fresh, err := Run(chaosConfig(wrongpath.InstRec, 64), w.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := Run(checkpointed(chaosConfig(wrongpath.Conv, 64), dir), w.MustBuild()); err != nil {
		t.Fatal(err)
	}
	cfg := checkpointed(chaosConfig(wrongpath.InstRec, 64), dir)
	cfg.Degrade = DegradePolicy{MaxRetries: 2}
	got, err := Execute(cfg, Instances(w, w.MustBuild()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripWall(fresh), stripWall(got)) {
		t.Errorf("laddered instrec over conv snapshots differs from a fresh instrec run\nfresh: %+v\ngot:   %+v", stripWall(fresh), stripWall(got))
	}
}

// TestLadderDescentResumesCheckpoint: a ladder retry is the one place a
// snapshot resumes under another technique. The requested conv rung
// fails (a wrapped source cannot checkpoint: ErrUnsupported), and the
// instrec retry restores the killed conv run's snapshot.
func TestLadderDescentResumesCheckpoint(t *testing.T) {
	w := gap.BFS(gap.TestParams())
	cfg := checkpointed(chaosConfig(wrongpath.Conv, 64), t.TempDir())
	killAtSnapshot(t, cfg, w, 2)
	reg := obs.NewRegistry()
	cfg.Metrics, cfg.ObsLabel = reg, "gap/bfs"
	cfg.Degrade = DegradePolicy{MaxRetries: 1}
	attempts := 0
	res, err := Execute(cfg, func(c Config) (Source, error) {
		attempts++
		src := NewFunctionalSource(c, w.MustBuild())
		if attempts == 1 {
			return WrapSource(src, func(p queue.Producer) queue.Producer { return p }), nil
		}
		return src, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 2 || !res.Degraded || res.WP != wrongpath.InstRec {
		t.Fatalf("ladder shape unexpected: attempts=%d degraded=%v WP=%v", attempts, res.Degraded, res.WP)
	}
	if !errors.Is(res.DegradeFault, simerr.ErrUnsupported) {
		t.Errorf("DegradeFault = %v, want ErrUnsupported cause", res.DegradeFault)
	}
	if got := restores(reg, wrongpath.InstRec); got != 1 {
		t.Errorf("instrec retry restored %d snapshots, want 1", got)
	}
}

// TestExecutePanicNoLeak: with the ladder disarmed, a panic in the
// source returns a typed ErrWorkerPanic instead of crashing, and the
// run's watchdog and canceler goroutines still stop.
func TestExecutePanicNoLeak(t *testing.T) {
	w := gap.BFS(gap.TestParams())
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := Default(wrongpath.Conv)
	cfg.Ctx = ctx
	cfg.Watchdog = time.Minute
	res, err := Execute(cfg, func(c Config) (Source, error) {
		return WrapSource(NewFunctionalSource(c, w.MustBuild()), func(p queue.Producer) queue.Producer {
			return faultinject.PanicAt(p, 100, "injected fault")
		}), nil
	})
	if res != nil || !errors.Is(err, simerr.ErrWorkerPanic) {
		t.Fatalf("Execute = (%v, %v), want (nil, ErrWorkerPanic)", res != nil, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d > baseline %d\n%s", runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
