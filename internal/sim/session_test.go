package sim

import (
	"strings"
	"testing"

	"repro/internal/workloads/gap"
	"repro/internal/wrongpath"
)

// TestSessionCapabilityRejection: the session layer must reject wpemul
// on any source that cannot functionally emulate wrong paths (the
// paper's §III-B restriction), and must do so before touching the
// producer — a trace source with no stream behind it is enough to get
// the error.
func TestSessionCapabilityRejection(t *testing.T) {
	_, err := NewSession(Default(wrongpath.WPEmul), NewTraceSource(nil))
	if err == nil {
		t.Fatal("session accepted wpemul on a trace source")
	}
	if !strings.Contains(err.Error(), "III-B") {
		t.Errorf("rejection should cite the paper's restriction, got: %v", err)
	}

	// Every reconstruction technique must pass the capability check
	// (construction only — a nil producer cannot run).
	for _, k := range wrongpath.Kinds() {
		if k == wrongpath.WPEmul {
			continue
		}
		if _, err := NewSession(Default(k), NewTraceSource(nil)); err != nil {
			t.Errorf("%v rejected on a trace source: %v", k, err)
		}
	}
}

// TestSessionMatchesRun: constructing the source and session by hand
// must be bit-identical to the Run wrapper — Run is documented as a
// thin wrapper, and callers supplying custom sources rely on it.
func TestSessionMatchesRun(t *testing.T) {
	w := gap.BFS(gap.TestParams())
	for _, k := range []wrongpath.Kind{wrongpath.NoWP, wrongpath.Conv, wrongpath.WPEmul} {
		cfg := Default(k)

		wrapped, err := Run(cfg, w.MustBuild())
		if err != nil {
			t.Fatal(err)
		}

		src := NewFunctionalSource(cfg, w.MustBuild())
		s, err := NewSession(cfg, src)
		if err != nil {
			src.Close()
			t.Fatal(err)
		}
		manual := s.Run()

		if wrapped.Core != manual.Core {
			t.Errorf("%v: core stats diverge:\n wrapped %+v\n manual  %+v", k, wrapped.Core, manual.Core)
		}
		if wrapped.L1D != manual.L1D || wrapped.L2 != manual.L2 {
			t.Errorf("%v: cache stats diverge", k)
		}
		if wrapped.FunctionalInsts != manual.FunctionalInsts ||
			wrapped.WPEmulatedPaths != manual.WPEmulatedPaths {
			t.Errorf("%v: source-side stats diverge", k)
		}
	}
}

// TestRunKindsParallelMatchesSerial: the batch engine's core guarantee
// at the sim layer — RunKinds with N workers must produce results
// bit-identical to the serial run, in kinds order, for every field but
// the host wall clock. CI runs this under -race.
func TestRunKindsParallelMatchesSerial(t *testing.T) {
	w := gap.BFS(gap.TestParams())
	kinds := wrongpath.Kinds()
	cfg := Default(wrongpath.NoWP)

	serial, err := RunKinds(cfg, w, kinds, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunKinds(cfg, w, kinds, 4)
	if err != nil {
		t.Fatal(err)
	}

	for i, k := range kinds {
		s, p := serial[i], parallel[i]
		if s.WP != k || p.WP != k {
			t.Fatalf("result %d: out of kinds order (serial %v, parallel %v, want %v)", i, s.WP, p.WP, k)
		}
		if s.Core != p.Core {
			t.Errorf("%v: core stats diverge across worker counts:\n serial   %+v\n parallel %+v", k, s.Core, p.Core)
		}
		if s.L1I != p.L1I || s.L1D != p.L1D || s.L2 != p.L2 || s.LLC != p.LLC {
			t.Errorf("%v: cache stats diverge across worker counts", k)
		}
		if s.Policy != p.Policy {
			t.Errorf("%v: policy stats diverge across worker counts", k)
		}
		if s.MemAccesses != p.MemAccesses || s.WrongMemAccesses != p.WrongMemAccesses {
			t.Errorf("%v: memory stats diverge across worker counts", k)
		}
		if s.FunctionalInsts != p.FunctionalInsts ||
			s.WPEmulatedPaths != p.WPEmulatedPaths || s.WPEmulatedInsts != p.WPEmulatedInsts {
			t.Errorf("%v: functional-side stats diverge across worker counts", k)
		}
	}
}

// TestRunAllCoversEveryKind: a sweep over wrongpath.Kinds() must yield
// one result per canonical kind, in order.
func TestRunAllCoversEveryKind(t *testing.T) {
	kinds := wrongpath.Kinds()
	results, err := RunKinds(Default(wrongpath.NoWP), gap.BFS(gap.TestParams()), kinds, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(kinds) {
		t.Fatalf("RunKinds returned %d results, want %d", len(results), len(kinds))
	}
	for i, k := range kinds {
		if results[i] == nil || results[i].WP != k {
			t.Errorf("RunKinds result %d is not %v", i, k)
		}
	}
}
