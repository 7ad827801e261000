package core

import (
	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/codecache"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/queue"
	"repro/internal/trace"
	"repro/internal/wrongpath"
)

const invalidLine = ^uint64(0)

// Stats holds the core-level counters of one simulation.
type Stats struct {
	// Instructions is the number of retired correct-path instructions.
	Instructions uint64
	// Cycles is the cycle of the last commit.
	Cycles uint64

	// Branch statistics (correct path).
	CondBranches         uint64
	CondMispredicted     uint64
	IndirectJumps        uint64
	IndirectMispredicted uint64
	Returns              uint64
	ReturnMispredicted   uint64
	// Mispredicts is the total of all control mispredictions.
	Mispredicts uint64

	// Wrong-path statistics. WPFetched counts wrong-path instructions
	// fetched before the triggering branch resolved; WPExecuted counts
	// those that also began execution before resolution (the paper's
	// Table II metric).
	WPFetched  uint64
	WPExecuted uint64
	// WPLoads counts wrong-path loads executed; WPLoadsWithAddr those
	// that carried a data address (and therefore accessed the cache).
	WPLoads         uint64
	WPLoadsWithAddr uint64

	// LoadForwards counts loads satisfied by store-to-load forwarding.
	LoadForwards uint64
	// Serializations counts pipeline drains for environment calls.
	Serializations uint64
}

// IPC returns retired instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// MPKI returns control mispredictions per kilo-instruction.
func (s Stats) MPKI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return 1000 * float64(s.Mispredicts) / float64(s.Instructions)
}

// WPFraction returns wrong-path instructions executed relative to the
// correct-path instruction count (Table II).
func (s Stats) WPFraction() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.WPExecuted) / float64(s.Instructions)
}

// noteWPFetched and noteWPExecuted are the approved accessors for the
// wrong-path-split counters (enforced by cmd/wplint's statpath
// analyzer): every increment goes through here so the correct/wrong
// attribution stays audited in one place.

func (s *Stats) noteWPFetched() { s.WPFetched++ }

func (s *Stats) noteWPExecuted(op isa.Op, hasAddr bool) {
	s.WPExecuted++
	if op.IsLoad() {
		s.WPLoads++
		if hasAddr {
			s.WPLoadsWithAddr++
		}
	}
}

type sqEntry struct {
	addr uint64
	size int
	done uint64
}

// Core is the out-of-order core timing model.
type Core struct {
	cfg    Config
	hier   *cache.Hierarchy
	bp     *branch.Unit
	code   *codecache.Cache
	q      *queue.Queue
	policy wrongpath.Policy
	ctx    wrongpath.Context

	// Fetch state.
	fetchCycle     uint64
	fetchedInCycle int
	curFetchLine   uint64
	lineMask       uint64
	l1iHitLat      uint64

	// Dispatch state (in-order, width-limited, ROB-occupancy-limited).
	lastDispatch uint64
	dispRing     []uint64
	dispIdx      int
	robRing      []uint64
	robIdx       int

	// Commit state (in-order, width-limited).
	lastCommit uint64
	commitRing []uint64
	commitIdx  int

	// Issue ports and functional units: the cycle each port or unit is
	// next free, each array kept as a binary min-heap so the earliest
	// free one is at index 0. The ports of one class are interchangeable
	// — timing depends only on the multiset of free times — so it does
	// not matter which of several earliest-free ones the top is.
	issuePorts []uint64
	fuFree     [16][]uint64
	fuLat      [16]uint64
	fuPipe     [16]bool

	// Register availability (by unified architectural register; the
	// model dispenses with explicit renaming — the ROB ring provides the
	// occupancy limit and write-after-write stalls do not exist because
	// every writer simply advances the availability time).
	regReady [isa.NumRegs]uint64

	// Store queue for store-to-load forwarding.
	storeQ []sqEntry
	sqIdx  int
	sqLive int

	// Wrong-path speculative-window pseudo-commit ring and the dispatch
	// snapshot buffer reused across mispredictions.
	wpRing       []uint64
	dispSnapshot []uint64

	// lane is the batched consumption buffer: PopBatch fills it, the run
	// loop walks it record by record. lane[lanePos] is the record being
	// processed; lane[lanePos+1:laneN] are already-popped future records
	// that peekFuture/windowFuture serve before falling through to the
	// queue — which keeps the future every policy sees identical to
	// per-instruction consumption.
	lane    []trace.DynInst
	laneN   int
	lanePos int

	// obs is the run's instrumentation view (nil when disabled; every
	// hook below it is a no-op behind one nil check).
	obs *obs.View

	// laneHook, when non-nil, runs at every measured-phase lane boundary
	// — the only instant at which the core's transient state (lane
	// buffer, wrong-path scratch) is provably empty, and therefore the
	// only instant a checkpoint may be taken. Returning false stops the
	// run (cancellation); the loop exits as if the stream had ended.
	laneHook func() bool

	// releaseWP, when non-nil, takes back a branch's emulated wrong path
	// (DynInst.WP) once the core has finished that branch; the frontend
	// then reuses the buffer for a later path. Installed under wpemul.
	releaseWP func([]trace.DynInst)

	stats Stats
}

// New builds a core. q supplies the correct-path instruction stream;
// policy supplies wrong-path streams on mispredictions.
func New(cfg Config, q *queue.Queue, policy wrongpath.Policy) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Core{
		cfg:          cfg,
		hier:         cache.NewHierarchy(cfg.Hierarchy),
		bp:           branch.New(cfg.BranchPred),
		code:         codecache.New(),
		q:            q,
		policy:       policy,
		curFetchLine: invalidLine,
		lineMask:     uint64(cfg.Hierarchy.L1I.LineBytes - 1),
		l1iHitLat:    uint64(cfg.Hierarchy.L1I.HitLatency),
		dispRing:     make([]uint64, cfg.DispatchWidth),
		robRing:      make([]uint64, cfg.ROBSize),
		commitRing:   make([]uint64, cfg.CommitWidth),
		issuePorts:   make([]uint64, cfg.IssueWidth),
		storeQ:       make([]sqEntry, cfg.StoreQueueSize),
		wpRing:       make([]uint64, cfg.ROBSize),
		lane:         make([]trace.DynInst, cfg.batch()),
	}
	for cl, fu := range cfg.FUs {
		c.fuFree[cl] = make([]uint64, fu.Count)
		c.fuLat[cl] = uint64(fu.Latency)
		c.fuPipe[cl] = fu.Pipelined
	}
	c.ctx = wrongpath.Context{
		Code:    c.code,
		Pred:    c.bp,
		Peek:    c.peekFuture,
		Window:  c.windowFuture,
		ROBSize: cfg.ROBSize,
		MaxLen:  cfg.WPMaxLen(),
	}
	return c, nil
}

// peekFuture returns the i-th future correct-path record: the lane
// remainder first, then the queue. Because PopBatch's refill keeps the
// queue in the per-instruction steady state, the combined view — both
// the records and the hit/miss boundary — is exactly what a
// per-instruction consumer's q.Peek(i) would see.
func (c *Core) peekFuture(i int) (trace.DynInst, bool) {
	r := c.laneN - c.lanePos - 1
	if i < r {
		return c.lane[c.lanePos+1+i], true
	}
	return c.q.Peek(i - r)
}

// windowFuture is the windowed form: a contiguous read-only view of
// the future starting at i, at most max records, possibly shorter
// (callers re-request at i+len). Same combined view as peekFuture.
func (c *Core) windowFuture(i, max int) []trace.DynInst {
	r := c.laneN - c.lanePos - 1
	if i < r {
		w := c.lane[c.lanePos+1+i : c.laneN]
		if len(w) > max {
			w = w[:max]
		}
		return w
	}
	return c.q.PeekWindow(i-r, max)
}

// SetObs attaches a run's instrumentation view to the core and its
// decoupling queue; nil detaches both. A view whose queue bundle has no
// live handles (trace-only runs) leaves the queue unobserved, so those
// runs pay no per-pop hook dispatch at all.
func (c *Core) SetObs(v *obs.View) {
	c.obs = v
	if v == nil || !v.Queue.Enabled() {
		c.q.SetObs(nil)
		return
	}
	c.q.SetObs(&v.Queue)
}

// SetLaneHook installs f to run at every measured-phase lane boundary
// (nil uninstalls it). The sim layer uses it for checkpoint writes and
// cancellation polls; a false return stops the run. Disabled runs pay
// one nil check per lane.
func (c *Core) SetLaneHook(f func() bool) { c.laneHook = f }

// SetWPRelease installs f to receive every emulated wrong path the core
// has finished with — at the end of warm for a warmup record, at the
// end of simulateWrongPath for a mispredicted branch, whatever the
// policy returned — and clears the record's WP so the core holds no
// reference to the returned buffer. nil uninstalls it (paths are then
// left to the GC).
func (c *Core) SetWPRelease(f func([]trace.DynInst)) { c.releaseWP = f }

// releaseWPOf hands di's emulated wrong path back (see SetWPRelease).
func (c *Core) releaseWPOf(di *trace.DynInst) {
	if di.WP != nil && c.releaseWP != nil {
		c.releaseWP(di.WP)
		di.WP = nil
	}
}

// Stats returns the accumulated statistics.
func (c *Core) Stats() Stats { return c.stats }

// Hierarchy returns the memory hierarchy (for cache statistics).
func (c *Core) Hierarchy() *cache.Hierarchy { return c.hier }

// Predictor returns the branch prediction unit.
func (c *Core) Predictor() *branch.Unit { return c.bp }

// CodeCache returns the code cache.
func (c *Core) CodeCache() *codecache.Cache { return c.code }

// Policy returns the wrong-path policy.
func (c *Core) Policy() wrongpath.Policy { return c.policy }

// Config returns the core configuration.
func (c *Core) Config() Config { return c.cfg }

// Run simulates until the program exits or maxInsts correct-path
// instructions have retired (0 = no cap). It returns the statistics.
func (c *Core) Run(maxInsts uint64) Stats {
	return c.RunWarmup(0, maxInsts)
}

// RunWarmup first functionally warms caches, TLBs, branch predictor and
// code cache with warmup instructions (no timing, no statistics — the
// standard warming phase of sampled simulation, as used around the
// paper's SimPoint samples), then runs the detailed simulation for
// maxInsts instructions.
func (c *Core) RunWarmup(warmup, maxInsts uint64) Stats {
	lane := c.lane
	// Warmup phase: batched functional state-warming, stopping at the
	// instruction budget, program exit, or stream end — the same points
	// a per-record loop stops at (PopBatch never crosses an Exit).
warmLoop:
	for consumed := uint64(0); consumed < warmup; {
		dst := lane
		if room := warmup - consumed; room < uint64(len(dst)) {
			dst = dst[:room]
		}
		n := c.q.PopBatch(dst)
		if n == 0 {
			break
		}
		consumed += uint64(n)
		for j := 0; j < n; j++ {
			di := &dst[j]
			m := c.code.InsertGet(di.PC, &di.In)
			c.warm(di, m)
			if di.Exit {
				break warmLoop
			}
		}
		// Cancellation is honored at warmup lane boundaries too; the hook
		// never checkpoints here (the measured instruction count is still
		// zero, below any snapshot threshold).
		if c.laneHook != nil && !c.laneHook() {
			c.stats.Cycles = c.lastCommit
			return c.stats
		}
	}
	if warmup > 0 {
		c.hier.ResetStats()
	}

	// Main loop: pop a lane, push each record through the pipeline. The
	// obs enablement check is hoisted to the batch boundary; disabled
	// runs pay no per-instruction observability dispatch.
mainLoop:
	for {
		dst := lane
		if maxInsts > 0 {
			if c.stats.Instructions >= maxInsts {
				break
			}
			if rem := maxInsts - c.stats.Instructions; rem < uint64(len(dst)) {
				dst = dst[:rem]
			}
		}
		n := c.q.PopBatch(dst)
		if n == 0 {
			break
		}
		c.laneN = n
		obsOn := c.obs != nil
		for j := 0; j < n; j++ {
			c.lanePos = j
			di := &c.lane[j]
			m := c.code.InsertGet(di.PC, &di.In)
			done, commit, pred := c.stepCorrect(di, m)
			c.stats.Instructions++
			if obsOn && c.stats.Instructions&1023 == 1 {
				// Queue-occupancy counter series, sampled every 1024 insts.
				c.obs.QueueDepth(c.lastCommit, c.q.Len())
			}

			isControl := m.IsControl()
			if isControl {
				c.recordBranch(di, pred)
			}
			switch {
			case isControl && pred.Mispredicted:
				c.stats.Mispredicts++
				resolve := done
				wpStart := c.fetchCycle
				wpLen, wpFetched := c.simulateWrongPath(di, pred.Target, resolve)
				if obsOn {
					var dur uint64
					if resolve > wpStart {
						dur = resolve - wpStart
					}
					c.obs.Mispredict(di.PC, wpStart, dur, wpLen, wpFetched)
				}
				c.redirectFetch(resolve + uint64(c.cfg.RedirectPenalty))
			case isControl && di.Taken:
				// Correctly predicted taken: the fetch group ends; the next
				// group starts at the target one cycle later.
				c.breakFetchGroup()
			case m.IsEcall():
				c.stats.Serializations++
				if obsOn {
					c.obs.Serialize(di.PC, commit)
				}
				c.redirectFetch(commit + uint64(c.cfg.RedirectPenalty))
			}
			if di.Exit {
				break mainLoop
			}
		}
		c.laneN, c.lanePos = 0, 0
		if c.laneHook != nil && !c.laneHook() {
			break
		}
	}
	c.laneN, c.lanePos = 0, 0
	c.stats.Cycles = c.lastCommit
	return c.stats
}

// warm pushes one instruction's state effects (caches, TLBs, predictor,
// code cache) without any timing accounting. The caller has already
// inserted the record into the code cache; m is its decode record.
func (c *Core) warm(di *trace.DynInst, m *codecache.Meta) {
	line := di.PC &^ c.lineMask
	if line != c.curFetchLine {
		c.hier.AccessI(di.PC, 0, false)
		c.curFetchLine = line
	}
	if m.IsControl() {
		c.bp.PredictAndUpdate(di.PC, di.In, di.Taken, di.NextPC)
	}
	if di.HasAddr {
		if m.IsLoad() {
			c.hier.Load(di.MemAddr, 0, false)
		} else if m.IsStore() {
			c.hier.Store(di.MemAddr, 0, false)
		}
	}
	c.releaseWPOf(di)
}

func (c *Core) recordBranch(di *trace.DynInst, pred branch.Prediction) {
	switch {
	case di.In.Op.IsCondBranch():
		c.stats.CondBranches++
		if pred.Mispredicted {
			c.stats.CondMispredicted++
		}
	case branch.IsReturn(di.In):
		c.stats.Returns++
		if pred.Mispredicted {
			c.stats.ReturnMispredicted++
		}
	case di.In.Op == isa.OpJalr:
		c.stats.IndirectJumps++
		if pred.Mispredicted {
			c.stats.IndirectMispredicted++
		}
	}
}

// fetch charges one instruction's fetch and returns its fetch cycle.
func (c *Core) fetch(pc uint64, wrongPath bool) uint64 {
	if c.fetchedInCycle >= c.cfg.FetchWidth {
		c.fetchCycle++
		c.fetchedInCycle = 0
		c.curFetchLine = invalidLine
	}
	line := pc &^ c.lineMask
	if line != c.curFetchLine {
		lat := uint64(c.hier.AccessI(pc, c.fetchCycle, wrongPath))
		if lat > c.l1iHitLat {
			// The front end stalls for the miss; the hit pipeline is
			// otherwise hidden.
			if c.obs != nil {
				c.obs.FetchStall(pc, c.fetchCycle, lat-c.l1iHitLat, wrongPath)
			}
			c.fetchCycle += lat - c.l1iHitLat
			c.fetchedInCycle = 0
		}
		c.curFetchLine = line
	}
	c.fetchedInCycle++
	return c.fetchCycle
}

func (c *Core) breakFetchGroup() {
	c.fetchCycle++
	c.fetchedInCycle = 0
	c.curFetchLine = invalidLine
}

func (c *Core) redirectFetch(cycle uint64) {
	if cycle > c.fetchCycle {
		c.fetchCycle = cycle
	}
	c.fetchedInCycle = 0
	c.curFetchLine = invalidLine
}

// stepCorrect pushes one correct-path instruction through the pipeline
// and returns its execution-complete and commit cycles plus the branch
// prediction verdict. m is the instruction's precomputed decode record.
func (c *Core) stepCorrect(di *trace.DynInst, m *codecache.Meta) (done, commit uint64, pred branch.Prediction) {
	fetchAt := c.fetch(di.PC, false)
	if m.IsControl() {
		pred = c.bp.PredictAndUpdate(di.PC, di.In, di.Taken, di.NextPC)
	}

	// Dispatch: in order, width-limited, ROB-occupancy-limited.
	disp := fetchAt + uint64(c.cfg.FetchToDispatch)
	disp = maxU(disp, c.lastDispatch)
	disp = maxU(disp, c.dispRing[c.dispIdx]+1)
	disp = maxU(disp, c.robRing[c.robIdx]+1)
	if m.IsEcall() {
		// Serializing: wait for every older instruction to commit.
		disp = maxU(disp, c.lastCommit+1)
	}
	c.lastDispatch = disp
	c.dispRing[c.dispIdx] = disp
	c.dispIdx = (c.dispIdx + 1) % c.cfg.DispatchWidth

	done = c.issueAndExecute(di, m, disp, false, 0)

	// Commit: in order, width-limited, one cycle after completion.
	commit = maxU(done+1, c.lastCommit)
	commit = maxU(commit, c.commitRing[c.commitIdx]+1)
	c.lastCommit = commit
	c.commitRing[c.commitIdx] = commit
	c.commitIdx = (c.commitIdx + 1) % c.cfg.CommitWidth
	c.robRing[c.robIdx] = commit
	c.robIdx = (c.robIdx + 1) % c.cfg.ROBSize

	if m.IsStore() && di.HasAddr {
		// Committed stores drain to the cache off the critical path.
		c.hier.Store(di.MemAddr, commit, false)
		c.pushStore(di.MemAddr, int(m.MemBytes), done)
	}
	return done, commit, pred
}

// issueAndExecute models dependence wakeup, issue-width and FU
// contention, and execution latency (loads through the hierarchy).
// When resolve is non-zero (wrong-path mode) and the instruction cannot
// start executing before resolve, it is squashed instead: no resources
// are consumed and the returned cycle is resolve itself.
func (c *Core) issueAndExecute(di *trace.DynInst, m *codecache.Meta, disp uint64, wrongPath bool, resolve uint64) uint64 {
	// Nops consume front-end and ROB slots only.
	if m.IsNop() {
		return disp
	}

	ready := disp
	for s := uint8(0); s < m.NSrcs; s++ {
		ready = maxU(ready, c.regReady[m.Srcs[s]])
	}

	// Issue port and functional unit: the earliest free of each, at the
	// top of its heap.
	issue := maxU(ready, c.issuePorts[0])
	cl := fuClass(m.Class)
	units := c.fuFree[cl]
	start := maxU(issue, units[0])

	if wrongPath && start >= resolve {
		// Squashed before issuing: consumes no execution resources and
		// makes no cache access.
		return resolve
	}

	c.issuePorts[0] = issue + 1
	siftDown(c.issuePorts, 0)
	var lat uint64
	switch {
	case m.IsLoad():
		lat = c.loadLatency(di, m, start, wrongPath)
	case m.IsEcall():
		lat = 5
	default:
		lat = c.fuLat[cl]
	}
	if c.fuPipe[cl] {
		units[0] = start + 1
	} else {
		units[0] = start + lat
	}
	siftDown(units, 0)

	done := start + lat
	if m.HasDst {
		c.regReady[m.Dst] = done
	}
	if wrongPath {
		c.stats.noteWPExecuted(di.In.Op, di.HasAddr)
	}
	return done
}

// loadLatency returns a load's latency: forwarded from the store queue,
// an assumed L1 hit when the address is unknown (instruction
// reconstruction), or a real hierarchy access.
func (c *Core) loadLatency(di *trace.DynInst, m *codecache.Meta, start uint64, wrongPath bool) uint64 {
	if !di.HasAddr {
		// §III-A: without addresses, "each memory operation is modeled
		// as a cache hit".
		return uint64(c.hier.L1DHitLatency())
	}
	if fwdDone, ok := c.forward(di.MemAddr, int(m.MemBytes)); ok {
		c.stats.LoadForwards++
		lat := uint64(c.hier.L1DHitLatency())
		if fwdDone+1 > start+lat {
			lat = fwdDone + 1 - start
		}
		return lat
	}
	return uint64(c.hier.Load(di.MemAddr, start, wrongPath))
}

func (c *Core) pushStore(addr uint64, size int, done uint64) {
	c.storeQ[c.sqIdx] = sqEntry{addr: addr, size: size, done: done}
	c.sqIdx = (c.sqIdx + 1) % len(c.storeQ)
	if c.sqLive < len(c.storeQ) {
		c.sqLive++
	}
}

// forward searches the store queue, newest first, for a store fully
// covering [addr, addr+size).
func (c *Core) forward(addr uint64, size int) (done uint64, ok bool) {
	idx := c.sqIdx
	for i := 0; i < c.sqLive; i++ {
		idx--
		if idx < 0 {
			idx = len(c.storeQ) - 1
		}
		e := &c.storeQ[idx]
		if addr >= e.addr && addr+uint64(size) <= e.addr+uint64(e.size) {
			return e.done, true
		}
	}
	return 0, false
}

// simulateWrongPath obtains the wrong-path stream from the policy and
// pushes it through the pipeline until the mispredicted branch resolves.
// Wrong-path instructions access the I-cache, occupy a speculative
// window of ROB size (stalling wrong-path fetch when it fills — this is
// what makes accurately-modeled wrong-path cache misses reduce the
// number of wrong-path instructions executed, the paper's Table II
// observation), and access the data hierarchy when their address is
// known. All register and dispatch bookkeeping is rolled back at the
// squash; cache and predictor-free structures keep the perturbation.
// It returns the generated wrong-path length and how many of those
// instructions were actually fetched before resolution (observability
// only; disabled runs discard them).
func (c *Core) simulateWrongPath(br *trace.DynInst, target uint64, resolve uint64) (wpLen, wpFetched int) {
	var prevConvDet, prevConvDist uint64
	if c.obs != nil {
		st := c.policy.Stats()
		prevConvDet, prevConvDist = st.ConvDetected, st.ConvDistSum
	}
	genStart := c.obs.WPGenStart()
	wp := c.policy.Begin(&c.ctx, br, target)
	c.obs.WPGenDone(genStart)
	if c.obs != nil {
		if st := c.policy.Stats(); st.ConvDetected > prevConvDet {
			c.obs.Convergence(br.PC, c.fetchCycle, st.ConvDistSum-prevConvDist)
		}
	}
	if len(wp) == 0 {
		c.releaseWPOf(br)
		return 0, 0
	}

	// Snapshot state that the squash logically restores.
	savedRegs := c.regReady
	savedLastDispatch := c.lastDispatch
	if c.dispSnapshot == nil {
		c.dispSnapshot = make([]uint64, len(c.dispRing))
	}
	copy(c.dispSnapshot, c.dispRing)
	savedDispIdx := c.dispIdx

	// The front end redirects to the predicted target one cycle after
	// the mispredicted branch's fetch group.
	c.breakFetchGroup()

	var lastPseudo uint64
	for i := range wp {
		// Speculative-window occupancy: entry i must wait for entry
		// i-ROBSize to pseudo-retire.
		if i >= c.cfg.ROBSize {
			free := c.wpRing[i%c.cfg.ROBSize] + 1
			if free > c.fetchCycle {
				c.redirectFetch(free)
			}
		}
		if c.fetchCycle >= resolve {
			break
		}
		fetchAt := c.fetch(wp[i].PC, true)
		c.stats.noteWPFetched()
		wpFetched++

		disp := fetchAt + uint64(c.cfg.FetchToDispatch)
		disp = maxU(disp, c.lastDispatch)
		disp = maxU(disp, c.dispRing[c.dispIdx]+1)
		c.lastDispatch = disp
		c.dispRing[c.dispIdx] = disp
		c.dispIdx = (c.dispIdx + 1) % c.cfg.DispatchWidth

		m := c.code.MetaFor(wp[i].PC, &wp[i].In)
		done := c.issueAndExecute(&wp[i], m, disp, true, resolve)

		pseudo := maxU(lastPseudo, done+1)
		c.wpRing[i%c.cfg.ROBSize] = pseudo
		lastPseudo = pseudo

		if wp[i].Taken && m.IsControl() && c.fetchCycle < resolve {
			c.breakFetchGroup()
		}
	}

	c.regReady = savedRegs
	c.lastDispatch = savedLastDispatch
	copy(c.dispRing, c.dispSnapshot)
	c.dispIdx = savedDispIdx
	c.releaseWPOf(br)
	return len(wp), wpFetched
}

func maxU(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// siftDown restores the min-heap order of h below index i after h[i]
// grew.
func siftDown(h []uint64, i int) {
	v := h[i]
	for {
		k := 2*i + 1
		if k >= len(h) {
			break
		}
		if r := k + 1; r < len(h) && h[r] < h[k] {
			k = r
		}
		if v <= h[k] {
			break
		}
		h[i] = h[k]
		i = k
	}
	h[i] = v
}

// heapify puts h in min-heap order.
func heapify(h []uint64) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
}
