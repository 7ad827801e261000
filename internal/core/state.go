package core

import (
	"fmt"

	"repro/internal/checkpoint"
)

// snapshotVersion stamps this package's snapshot section; bump it when
// the serialized field set changes (enforced by wplint's checkpoint
// analyzer).
const snapshotVersion = 1

// SaveState serializes the core's persistent timing state at a lane
// boundary: fetch/dispatch/commit clocks and rings, issue-port and
// functional-unit availability, register-ready times, the store queue,
// the statistics, and the delegated predictor, hierarchy and code-cache
// state. The lane buffer, the wrong-path scratch (wpRing/dispSnapshot)
// and the observability view are deliberately absent — at a lane
// boundary the lane is empty, and the wrong-path scratch is written
// before it is read within every single simulateWrongPath call.
func (c *Core) SaveState(w *checkpoint.Writer) {
	w.Section("core/Core", snapshotVersion)
	w.Uint64(c.fetchCycle)
	w.Int(c.fetchedInCycle)
	w.Uint64(c.curFetchLine)
	w.Uint64(c.lastDispatch)
	w.Uint64s(c.dispRing)
	w.Int(c.dispIdx)
	w.Uint64s(c.robRing)
	w.Int(c.robIdx)
	w.Uint64(c.lastCommit)
	w.Uint64s(c.commitRing)
	w.Int(c.commitIdx)
	w.Uint64s(c.issuePorts)
	for cl := range c.fuFree {
		w.Uint64s(c.fuFree[cl])
	}
	for i := range c.regReady {
		w.Uint64(c.regReady[i])
	}
	w.Uint64(uint64(len(c.storeQ)))
	for i := range c.storeQ {
		e := &c.storeQ[i]
		w.Uint64(e.addr)
		w.Int(e.size)
		w.Uint64(e.done)
	}
	w.Int(c.sqIdx)
	w.Int(c.sqLive)
	c.stats.SaveState(w)
	c.bp.SaveState(w)
	c.hier.SaveState(w)
	c.code.SaveState(w)
}

// RestoreState overwrites the core's state with the snapshot. The
// receiver must be built (New) under the same configuration; every
// configuration-sized structure is length-validated during decode.
// The port and FU arrays are re-heapified: a snapshot need not hold
// them in heap order (older writers kept them unordered), and only
// their multisets of free times affect timing.
func (c *Core) RestoreState(r *checkpoint.Reader) error {
	if err := r.Section("core/Core", snapshotVersion); err != nil {
		return err
	}
	c.fetchCycle = r.Uint64()
	c.fetchedInCycle = r.Int()
	c.curFetchLine = r.Uint64()
	c.lastDispatch = r.Uint64()
	r.Uint64sInto(c.dispRing)
	c.dispIdx = r.Int()
	r.Uint64sInto(c.robRing)
	c.robIdx = r.Int()
	c.lastCommit = r.Uint64()
	r.Uint64sInto(c.commitRing)
	c.commitIdx = r.Int()
	r.Uint64sInto(c.issuePorts)
	heapify(c.issuePorts)
	for cl := range c.fuFree {
		r.Uint64sInto(c.fuFree[cl])
		heapify(c.fuFree[cl])
	}
	for i := range c.regReady {
		c.regReady[i] = r.Uint64()
	}
	nsq := r.Uint64()
	if err := r.Err(); err != nil {
		return err
	}
	if nsq != uint64(len(c.storeQ)) {
		return fmt.Errorf("core: snapshot store queue holds %d entries, want %d", nsq, len(c.storeQ))
	}
	for i := range c.storeQ {
		e := &c.storeQ[i]
		e.addr = r.Uint64()
		e.size = r.Int()
		e.done = r.Uint64()
	}
	c.sqIdx = r.Int()
	c.sqLive = r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if err := c.stats.RestoreState(r); err != nil {
		return err
	}
	if err := c.bp.RestoreState(r); err != nil {
		return err
	}
	if err := c.hier.RestoreState(r); err != nil {
		return err
	}
	return c.code.RestoreState(r)
}

// SaveState serializes the core counters.
func (s *Stats) SaveState(w *checkpoint.Writer) {
	w.Section("core/Stats", snapshotVersion)
	w.Uint64(s.Instructions)
	w.Uint64(s.Cycles)
	w.Uint64(s.CondBranches)
	w.Uint64(s.CondMispredicted)
	w.Uint64(s.IndirectJumps)
	w.Uint64(s.IndirectMispredicted)
	w.Uint64(s.Returns)
	w.Uint64(s.ReturnMispredicted)
	w.Uint64(s.Mispredicts)
	w.Uint64(s.WPFetched)
	w.Uint64(s.WPExecuted)
	w.Uint64(s.WPLoads)
	w.Uint64(s.WPLoadsWithAddr)
	w.Uint64(s.LoadForwards)
	w.Uint64(s.Serializations)
}

// RestoreState overwrites the counters with the snapshot.
func (s *Stats) RestoreState(r *checkpoint.Reader) error {
	if err := r.Section("core/Stats", snapshotVersion); err != nil {
		return err
	}
	s.Instructions = r.Uint64()
	s.Cycles = r.Uint64()
	s.CondBranches = r.Uint64()
	s.CondMispredicted = r.Uint64()
	s.IndirectJumps = r.Uint64()
	s.IndirectMispredicted = r.Uint64()
	s.Returns = r.Uint64()
	s.ReturnMispredicted = r.Uint64()
	s.Mispredicts = r.Uint64()
	s.WPFetched = r.Uint64()
	s.WPExecuted = r.Uint64()
	s.WPLoads = r.Uint64()
	s.WPLoadsWithAddr = r.Uint64()
	s.LoadForwards = r.Uint64()
	s.Serializations = r.Uint64()
	return r.Err()
}
