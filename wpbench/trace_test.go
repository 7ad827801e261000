package main

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/workloads/catalog"
	"repro/internal/wrongpath"
)

// testSpec is a small GAP bfs input that still mispredicts.
var testSpec = server.JobSpec{Suite: "gap", Bench: "bfs", N: 512, Degree: 4, Seed: 7}

func mustCanonical(t *testing.T, res *sim.Result) []byte {
	t.Helper()
	if res.Err != nil {
		t.Fatalf("run error: %v", res.Err)
	}
	b, err := server.CanonicalResult(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWrappersKeepResults pins that the timing wrappers, and the cloned
// instances the benchmark simulates, leave the canonical result bytes
// identical to a plain sim.Run on a freshly built instance.
func TestWrappersKeepResults(t *testing.T) {
	const maxInsts = 60_000
	in, _, err := buildInput(testSpec, maxInsts)
	if err != nil {
		t.Fatal(err)
	}
	w, err := catalog.Find(testSpec.Suite, testSpec.Bench, catalogParams(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range wrongpath.Kinds() {
		inst, err := w.Build()
		if err != nil {
			t.Fatal(err)
		}
		cfg := sim.Default(k)
		cfg.MaxInsts = maxInsts
		ref, err := sim.Run(cfg, inst)
		if err != nil {
			t.Fatal(err)
		}
		want := mustCanonical(t, ref)
		for _, allocs := range []*allocCounter{nil, newAllocCounter()} {
			clone, err := in.instance()
			if err != nil {
				t.Fatal(err)
			}
			res, split, err := runTimed(in.config(k), sim.NewFunctionalSource(in.config(k), clone), allocs)
			if err != nil {
				t.Fatal(err)
			}
			if got := mustCanonical(t, res); !bytes.Equal(got, want) {
				t.Errorf("%s (alloc counting %v): traced result differs from sim.Run", k, allocs != nil)
			}
			if split.refills == 0 || (k != wrongpath.NoWP && split.begins == 0) {
				t.Errorf("%s: wrappers saw %d refills and %d Begin calls", k, split.refills, split.begins)
			}
		}
	}
}

// TestSharesSumToOne runs one traced round and checks that the
// frontend, wrong-path and core shares of every technique sum to one,
// both for a single run's split and for the reported metrics.
func TestSharesSumToOne(t *testing.T) {
	in, _, err := buildInput(testSpec, 40_000)
	if err != nil {
		t.Fatal(err)
	}
	tl := &tally{log: &bytes.Buffer{}}
	d := newDirectPhase(in, newAllocCounter(), tl)
	d.run(0, true)
	if tl.failed != 0 {
		t.Fatalf("%d failed operations: %s", tl.failed, tl.log)
	}
	for _, k := range d.kinds {
		fe, wp, core := d.splits[k][0].shares()
		if s := fe + wp + core; math.Abs(s-1) > 1e-12 {
			t.Errorf("%s: one run's shares sum to %v", k, s)
		}
	}
	m := map[string]metric{}
	layerMetrics(m, d, nil, tl, t.TempDir())
	if tl.failed != 0 {
		t.Fatalf("%d failed operations: %s", tl.failed, tl.log)
	}
	for _, k := range d.kinds {
		n := k.String()
		s := m["frontend."+n+".share"].Value + m["wrongpath."+n+".share"].Value + m["core."+n+".share"].Value
		if math.Abs(s-1) > 1e-12 {
			t.Errorf("%s: reported shares sum to %v", k, s)
		}
	}
}
