package main

import (
	"time"

	"repro/internal/isa"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wrongpath"
)

// timedSource wraps a live functional Source and times every NextBatch
// call — the frontend layer: functional.Step and, under wpemul,
// AppendWrongPath. It forwards Program so NewSession still predecodes
// the static program into the code cache; a wrapper that dropped it
// would make the traced run simulate with a cold code cache, i.e. a
// different program than the untraced run.
//
// With allocs set it also attributes heap allocation to the calls. That
// costs two runtime/metrics reads per call, so the timing passes leave
// it nil and one extra pass per technique counts bytes.
type timedSource struct {
	sim.Source
	allocs *allocCounter
	// pol, when set, is told of refills made from inside Begin: a
	// policy's look-ahead window can run past the queue's contents.
	pol *timedPolicy

	ns     time.Duration
	calls  uint64
	allocB uint64
}

// programSource is the capability NewSession probes for to predecode.
type programSource interface{ Program() *isa.Program }

// newTimedSource wraps src, which must expose its program (the live
// functional sources sim.NewFunctionalSource returns do).
func newTimedSource(src sim.Source, allocs *allocCounter) *timedSource {
	if _, ok := src.(programSource); !ok {
		panic("wpbench: timed source needs a source that exposes its program")
	}
	return &timedSource{Source: src, allocs: allocs}
}

func (t *timedSource) Program() *isa.Program { return t.Source.(programSource).Program() }

func (t *timedSource) NextBatch(dst []trace.DynInst) int {
	var a0 uint64
	if t.allocs != nil {
		a0 = t.allocs.bytes()
	}
	start := time.Now()
	n := queue.NextBatchOf(t.Source, dst)
	took := time.Since(start)
	t.ns += took
	if t.pol != nil && t.pol.inBegin {
		t.pol.nested += took
	}
	if t.allocs != nil {
		t.allocB += t.allocs.bytes() - a0
	}
	t.calls++
	return n
}

func (t *timedSource) Next() (trace.DynInst, bool) {
	start := time.Now()
	di, ok := t.Source.Next()
	took := time.Since(start)
	t.ns += took
	if t.pol != nil && t.pol.inBegin {
		t.pol.nested += took
	}
	t.calls++
	return di, ok
}

// timedPolicy wraps a wrong-path policy and times Begin, the policy's
// only per-mispredict entry point. Stats and Kind are forwarded by
// embedding. Frontend refills made from inside Begin are counted in
// nested, so the policy's self time excludes them.
type timedPolicy struct {
	wrongpath.Policy
	ns      time.Duration
	nested  time.Duration
	calls   uint64
	inBegin bool
}

func (p *timedPolicy) Begin(ctx *wrongpath.Context, br *trace.DynInst, predictedTarget uint64) []trace.DynInst {
	p.inBegin = true
	start := time.Now()
	out := p.Policy.Begin(ctx, br, predictedTarget)
	p.ns += time.Since(start)
	p.inBegin = false
	p.calls++
	return out
}

// layerSplit is one traced simulation's host time by layer, each the
// layer's self time. Core is what remains of the session's run time
// after the frontend and policy calls, so the three shares sum to one
// by construction.
type layerSplit struct {
	total, frontend, policy time.Duration
	refills, begins         uint64
	frontendAllocB          uint64
}

func (l layerSplit) core() time.Duration { return l.total - l.frontend - l.policy }

// shares returns the frontend, policy and core shares of the run time.
func (l layerSplit) shares() (fe, wp, core float64) {
	t := float64(l.total)
	return float64(l.frontend) / t, float64(l.policy) / t, float64(l.core()) / t
}

// runTimed runs one session with both wrappers in place and returns the
// result and its layer split. allocs, when non-nil, turns on per-call
// allocation attribution in the frontend wrapper.
func runTimed(cfg sim.Config, src sim.Source, allocs *allocCounter) (*sim.Result, layerSplit, error) {
	pol := &timedPolicy{Policy: wrongpath.New(cfg.WP)}
	fe := newTimedSource(src, allocs)
	fe.pol = pol
	cfg.PolicyFactory = func() wrongpath.Policy { return pol }
	s, err := sim.NewSession(cfg, fe)
	if err != nil {
		src.Close()
		return nil, layerSplit{}, err
	}
	start := time.Now()
	res := s.Run()
	total := time.Since(start)
	return res, layerSplit{
		total:          total,
		frontend:       fe.ns,
		policy:         pol.ns - pol.nested,
		refills:        fe.calls,
		begins:         pol.calls,
		frontendAllocB: fe.allocB,
	}, nil
}
