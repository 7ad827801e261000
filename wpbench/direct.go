package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/workloads"
	"repro/internal/workloads/catalog"
	"repro/internal/wrongpath"
)

// simInput is the direct phase's simulation input: one built workload
// instance, kept pristine and cloned for every simulation (a run
// consumes its instance's memory).
type simInput struct {
	spec     server.JobSpec // the workload and its input shape; WP unset
	prog     *isa.Program
	stackTop uint64
	maxInsts uint64
	memSnap  []byte // checkpoint encoding of the pristine memory image
}

// catalogParams maps a spec's input-shape fields onto catalog.Params.
func catalogParams(sp server.JobSpec) catalog.Params {
	return catalog.Params{N: sp.N, Degree: sp.Degree, Kron: sp.Kron, Grid: sp.Grid, Seed: sp.Seed, Scale: sp.Scale}
}

// buildInput builds the instance for spec (graph generation or data
// generation, then assembly) and returns it with the build time. The
// memory snapshot taken afterwards is benchmark overhead and is not
// part of the build time. maxInsts 0 keeps the workload's own budget.
func buildInput(spec server.JobSpec, maxInsts uint64) (*simInput, time.Duration, error) {
	start := time.Now()
	w, err := catalog.Find(spec.Suite, spec.Bench, catalogParams(spec))
	if err != nil {
		return nil, 0, err
	}
	inst, err := w.Build()
	if err != nil {
		return nil, 0, fmt.Errorf("building %s/%s: %w", spec.Suite, spec.Bench, err)
	}
	took := time.Since(start)
	if maxInsts == 0 {
		maxInsts = inst.SuggestedMaxInsts
	}
	cw := checkpoint.NewWriter()
	inst.Mem.SaveState(cw)
	return &simInput{
		spec:     spec,
		prog:     inst.Prog,
		stackTop: inst.StackTop,
		maxInsts: maxInsts,
		memSnap:  cw.Finish(),
	}, took, nil
}

// instance returns a fresh copy of the pristine instance.
func (in *simInput) instance() (*workloads.Instance, error) {
	r, err := checkpoint.Open(in.memSnap)
	if err != nil {
		return nil, err
	}
	m := mem.New()
	if err := m.RestoreState(r); err != nil {
		return nil, err
	}
	return &workloads.Instance{Prog: in.prog, Mem: m, StackTop: in.stackTop, SuggestedMaxInsts: in.maxInsts}, nil
}

// config is the simulation configuration for one technique: the
// default core, no warmup (the modelled caches start empty, as in
// wpsim), and the input's instruction budget.
func (in *simInput) config(k wrongpath.Kind) sim.Config {
	cfg := sim.Default(k)
	cfg.MaxInsts = in.maxInsts
	return cfg
}

// jobSpec is the served-job equivalent of simulating the input under k,
// used to fingerprint the input's canonical bodies.
func (in *simInput) jobSpec(k wrongpath.Kind) server.JobSpec {
	sp := in.spec
	sp.WP = k.String()
	sp.MaxInsts = in.maxInsts
	return sp
}

// plainSample is one untraced simulation's cost.
type plainSample struct {
	cpu     time.Duration // process CPU time, session construction included
	runWall time.Duration // wall time of Session.Run alone
	insts   uint64        // simulated correct-path instructions
	allocB  uint64        // heap bytes allocated
	liveB   uint64        // live heap with the finished session still held
	host    float64       // host factor measured right before and after
}

// mips is the sample's host-normalized simulation speed in millions of
// correct-path instructions per CPU-second.
func (s plainSample) mips() float64 { return float64(s.insts) / s.cpu.Seconds() / 1e6 * s.host }

// directPhase runs every technique on one input, round after round,
// and checks that every repetition of a technique yields the same
// canonical result bytes.
type directPhase struct {
	in     *simInput
	kinds  []wrongpath.Kind
	allocs *allocCounter
	tally  *tally

	plain     map[wrongpath.Kind][]plainSample
	splits    map[wrongpath.Kind][]layerSplit
	allocPass map[wrongpath.Kind]layerSplit
	first     map[wrongpath.Kind]*sim.Result
	digest    map[wrongpath.Kind]string
	body      map[wrongpath.Kind][]byte
}

func newDirectPhase(in *simInput, allocs *allocCounter, t *tally) *directPhase {
	return &directPhase{
		in:        in,
		kinds:     wrongpath.Kinds(),
		allocs:    allocs,
		tally:     t,
		plain:     map[wrongpath.Kind][]plainSample{},
		splits:    map[wrongpath.Kind][]layerSplit{},
		allocPass: map[wrongpath.Kind]layerSplit{},
		first:     map[wrongpath.Kind]*sim.Result{},
		digest:    map[wrongpath.Kind]string{},
		body:      map[wrongpath.Kind][]byte{},
	}
}

// run repeats rounds over all techniques until budget has passed; it
// always completes at least one round and never stops mid-round, so
// every technique has the same number of repetitions. A traced round
// runs each technique once with the timing wrappers and once without,
// and the first traced round adds one allocation-attribution pass.
func (d *directPhase) run(budget time.Duration, traced bool) {
	deadline := time.Now().Add(budget)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		for _, k := range d.kinds {
			if traced {
				if round == 0 {
					if split, ok := d.timed(k, true); ok {
						d.allocPass[k] = split
					}
				}
				if split, ok := d.timed(k, false); ok {
					d.splits[k] = append(d.splits[k], split)
				}
			}
			if s, ok := d.plainRun(k); ok {
				d.plain[k] = append(d.plain[k], s)
			}
		}
	}
	for _, k := range d.kinds {
		if len(d.plain[k]) == 0 || (traced && len(d.splits[k]) == 0) {
			d.tally.fail("direct %s/%s: technique %s produced no successful run", d.in.spec.Suite, d.in.spec.Bench, k)
		}
	}
}

// host is the median host factor over the phase's untraced runs.
func (d *directPhase) host() float64 {
	var fs []float64
	for _, k := range d.kinds {
		for _, s := range d.plain[k] {
			fs = append(fs, s.host)
		}
	}
	return median(fs)
}

// plainRun simulates k without instrumentation and measures its cost.
func (d *directPhase) plainRun(k wrongpath.Kind) (plainSample, bool) {
	inst, err := d.in.instance()
	if err != nil {
		d.tally.attempt()
		d.tally.fail("direct %s: cloning instance: %v", k, err)
		return plainSample{}, false
	}
	cfg := d.in.config(k)
	runtime.GC()
	before := hostFactor()
	a0, c0 := d.allocs.bytes(), cpuTime()
	src := sim.NewFunctionalSource(cfg, inst)
	s, err := sim.NewSession(cfg, src)
	if err != nil {
		src.Close()
		d.tally.attempt()
		d.tally.fail("direct %s: %v", k, err)
		return plainSample{}, false
	}
	start := time.Now()
	res := s.Run()
	runWall := time.Since(start)
	sample := plainSample{cpu: cpuTime() - c0, runWall: runWall, insts: res.Core.Instructions, allocB: d.allocs.bytes() - a0}
	sample.host = (before + hostFactor()) / 2
	sample.liveB = liveHeap()
	runtime.KeepAlive(s)
	return sample, d.check(k, res)
}

// timed simulates k with the layer-timing wrappers.
func (d *directPhase) timed(k wrongpath.Kind, countAllocs bool) (layerSplit, bool) {
	inst, err := d.in.instance()
	if err != nil {
		d.tally.attempt()
		d.tally.fail("direct %s: cloning instance: %v", k, err)
		return layerSplit{}, false
	}
	cfg := d.in.config(k)
	var allocs *allocCounter
	if countAllocs {
		allocs = d.allocs
	}
	runtime.GC()
	res, split, err := runTimed(cfg, sim.NewFunctionalSource(cfg, inst), allocs)
	if err != nil {
		d.tally.attempt()
		d.tally.fail("direct %s (traced): %v", k, err)
		return layerSplit{}, false
	}
	return split, d.check(k, res)
}

// check counts one simulation and fails it when it ended with an error,
// ran degraded, or produced canonical bytes that differ from the
// technique's first repetition.
func (d *directPhase) check(k wrongpath.Kind, res *sim.Result) bool {
	d.tally.attempt()
	if res.Err != nil {
		d.tally.fail("direct %s: run error: %v", k, res.Err)
		return false
	}
	if res.Degraded {
		d.tally.fail("direct %s: run degraded to %s", k, res.WP)
		return false
	}
	body, err := server.CanonicalResult(res)
	if err != nil {
		d.tally.fail("direct %s: rendering result: %v", k, err)
		return false
	}
	sum := sha256.Sum256(body)
	digest := hex.EncodeToString(sum[:])
	want, seen := d.digest[k]
	if !seen {
		d.digest[k] = digest
		d.first[k] = res
		d.body[k] = body
		return true
	}
	if digest != want {
		d.tally.fail("direct %s: result digest %s differs from the first repetition's %s", k, digest[:16], want[:16])
		return false
	}
	return true
}
