package pipeline

import (
	"context"
	"fmt"

	"rvpsim/internal/bpred"
	"rvpsim/internal/core"
	"rvpsim/internal/emu"
	"rvpsim/internal/isa"
	"rvpsim/internal/mem"
	"rvpsim/internal/obs"
	"rvpsim/internal/program"
	"rvpsim/internal/simerr"
)

// capRing is a lazily-cleared, cycle-indexed bandwidth counter used for
// issue/dispatch/commit slot booking. Slots alias modulo its size, which
// is far larger than any in-flight time spread.
// capRing entries pack the stamping cycle and the booked count into one
// word: stamp<<capCountBits | count. One load serves the probe, and the
// ring's footprint (zeroed on every run) is a third of the two-array
// layout. Cycles are nonnegative and bounded far below 2^48 by any
// realistic budget; Config.Validate bounds every limit below 2^16.
type capRing struct {
	ent   []uint64
	limit uint64
}

const capRingBits = 16
const capRingSize = 1 << capRingBits

const capCountBits = 16
const capCountMask = 1<<capCountBits - 1

func newCapRing(limit int) *capRing {
	return &capRing{
		ent:   make([]uint64, capRingSize),
		limit: uint64(limit),
	}
}

func (c *capRing) used(cycle int64) int32 {
	e := c.ent[cycle&(capRingSize-1)]
	if e>>capCountBits != uint64(cycle) {
		return 0
	}
	return int32(e & capCountMask)
}

func (c *capRing) avail(cycle int64) bool {
	e := c.ent[cycle&(capRingSize-1)]
	return e>>capCountBits != uint64(cycle) || e&capCountMask < c.limit
}

// bookFrom books the earliest cycle >= t with a free slot and returns it.
// Equivalent to `for !avail(t) { t++ }; book(t)` with one index/load per
// probed cycle instead of two.
func (c *capRing) bookFrom(t int64) int64 {
	for {
		i := t & (capRingSize - 1)
		e := c.ent[i]
		if e>>capCountBits != uint64(t) {
			c.ent[i] = uint64(t)<<capCountBits | 1
			return t
		}
		if e&capCountMask < c.limit {
			c.ent[i] = e + 1
			return t
		}
		t++
	}
}

func (c *capRing) book(cycle int64) {
	i := cycle & (capRingSize - 1)
	if e := c.ent[i]; e>>capCountBits != uint64(cycle) {
		c.ent[i] = uint64(cycle)<<capCountBits | 1
	} else {
		c.ent[i] = e + 1
	}
}

// pendingPred tracks one in-flight value prediction for recovery
// bookkeeping. Instances are pooled per run: refs counts the live
// references (a regPending slot and, under reissue, an activePreds
// entry); when it drops to zero the record returns to the run's free
// list instead of the garbage collector.
type pendingPred struct {
	verifyAt int64
	doneAt   int64
	wrong    bool
	useSeen  bool
	refs     int32
}

// instInfo is the per-static-instruction decode information the commit
// loop needs every iteration. It is computed once per run (newRunState)
// so the loop never re-derives classification, latency, or source
// registers from the opcode.
type instInfo struct {
	srcs   [2]isa.Reg
	lat    int64
	cls    isa.Class
	nsrc   uint8
	useFPQ bool
	isMem  bool
}

// Concrete predictor dispatch kinds (runState.predKind). The loop
// type-switches once per run instead of making interface calls per
// commit; predGeneric falls back to the interface for predictors outside
// the built-in set.
const (
	predGeneric = iota
	predNone
	predDynamic
	predStatic
	predLVP
	predGabbay
)

// FaultInjector perturbs a run for robustness testing (see
// internal/faultinject). All hooks run on the simulation goroutine; an
// injector must not be shared between concurrent Sims.
type FaultInjector interface {
	// MemLatency may stretch (or shorten) one data-access latency.
	MemLatency(addr uint64, now int64, lat int) int
	// FlipPredict reports whether to invert this instruction's
	// predict/don't-predict decision (confidence-counter bit flip).
	FlipPredict(idx int) bool
	// CheckPoint runs once per commit batch; a non-nil error aborts the
	// run, and a panic propagates to the caller (exercising the
	// experiment runner's recovery path).
	CheckPoint(committed uint64, cycle int64) error
}

// runState is the complete per-run mutable simulation state: the oracle
// emulator, statistics, per-register and per-instruction timing, queue
// occupancy, bandwidth books, and front-end position. Keeping it in one
// struct (rather than locals of the run loop) is what makes a run
// snapshot-able: Sim.Snapshot serializes exactly these fields plus the
// subsystem states (emu, memory hierarchy, branch predictor, value
// predictor).
type runState struct {
	prog *program.Program
	pred core.Predictor
	st   *emu.State

	// Devirtualized predictor dispatch: predKind selects one of the
	// concrete fields below (set once by newRunState) so the per-commit
	// Decide/Commit calls are direct, not through the interface.
	predKind int
	drvp     *core.DynamicRVP
	srvp     *core.StaticRVP
	lvp      *core.LVP
	grvp     *core.GabbayRVP

	// Per-static-instruction decode table (see instInfo).
	info []instInfo

	// pendingPred free list (see pendingPred.refs).
	predFree []*pendingPred

	stats Stats

	// Per-register timing state.
	regReady   [isa.NumRegs]int64 // when the latest value is available
	specUntil  [isa.NumRegs]int64 // selective-reissue taint: latest verify time
	regPending [isa.NumRegs]*pendingPred

	// Per-static-instruction readiness of the previous result (for
	// KindLastValue prediction sources). Like regReady for same-register
	// sources, it collapses while the value repeats: a re-allocated
	// register would have held the (identical) value since the oldest
	// instance of the run, so consumers need not wait for the newest.
	lvReady []int64
	lvLast  []uint64

	// Queue occupancy rings: release time of the instruction N-slots back.
	intIQ  []int64
	fpIQ   []int64
	window []int64
	intN   uint64
	fpN    uint64
	winN   uint64
	// Ring cursors: intN % len(intIQ) etc., maintained incrementally so
	// the commit loop never does a 64-bit modulo. Derived state — not
	// serialized; restoreRunState recomputes them from the counters.
	intIdx int
	fpIdx  int
	winIdx int

	// Bandwidth books.
	dispatchCap *capRing
	issueCap    *capRing
	intCap      *capRing
	lsCap       *capRing
	fpCap       *capRing
	commitCap   *capRing
	portCap     *capRing // nil unless cfg.PredictPorts > 0

	// Front-end state.
	fetchCycle  int64
	minFetch    int64
	fetchSlots  int
	fetchBlocks int
	curLine     uint64

	lastDispatch int64
	lastCommit   int64
	lastCycle    int64
	activePreds  []*pendingPred

	lastCkpt uint64 // stats.Committed at the last periodic checkpoint
	lastProg uint64 // stats.Committed at the last progress callback
	coherent bool   // state is at an instruction boundary (snapshot-safe)
}

// Hooks is everything a caller attaches to a Sim's runs besides the
// program and the predictor. Every hook runs on the simulation goroutine
// and only reads simulator state, so no hook can change the committed
// instruction/value stream except Faults, whose job that is. The zero
// Hooks is a bare run.
type Hooks struct {
	// Observer receives the run's metrics (when it has a registry) and
	// one Event per committed instruction, in commit order (when it has
	// sinks). Statistics, stage-latency histograms, and the memory,
	// branch and value-predictor counters are published batched, off the
	// hot path.
	Observer *obs.Observer
	// Faults perturbs the run for robustness testing.
	Faults FaultInjector
	// OnCheckpoint receives a fresh Snapshot at the first commit-batch
	// boundary after each further CheckpointEvery committed
	// instructions. A non-nil error aborts the run with a
	// "checkpoint"-stage SimError; return nil to treat write failures as
	// non-fatal.
	CheckpointEvery uint64
	OnCheckpoint    func(*Snapshot) error
	// OnProgress receives the committed-instruction count and current
	// cycle at the first commit-batch boundary after each further
	// ProgressEvery committed instructions: the live heartbeat the
	// service's job streams are fed from.
	ProgressEvery uint64
	OnProgress    func(committed uint64, cycles int64)
}

// Sim is the timing simulator. One Sim runs one program at a time; Run
// again (which resets state) or allocate a new Sim per measurement.
type Sim struct {
	cfg   Config
	hier  *mem.Hierarchy
	bp    *bpred.Predictor
	hooks Hooks
	cur   *runState // state of the current / most recent run
}

// SetHooks replaces every hook at once: hooks the new value leaves zero
// are off, whatever an earlier SetHooks armed.
func (s *Sim) SetHooks(h Hooks) { s.hooks = h }

// New builds a simulator for the configuration.
func New(cfg Config) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Sim{cfg: cfg}, nil
}

// MustNew is New, panicking on config errors.
func MustNew(cfg Config) *Sim {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// commitBatch is how many committed instructions pass between
// cancellation / fault-checkpoint polls. It bounds how much work a
// canceled context can still charge: one batch.
const commitBatch = 1024

// newRunState builds the zeroed timing state for a fresh run. When this
// Sim has run before, the previous run's state is recycled in place (see
// resetRunState) instead of reallocated: the capacity rings alone are
// ~3.5MB per run, and N simulators each reallocating them per run
// serialize in the allocator long before they saturate N cores.
func (s *Sim) newRunState(prog *program.Program, pred core.Predictor, st *emu.State) *runState {
	if r := s.cur; r != nil {
		s.resetRunState(r, prog, pred, st)
		return r
	}
	cfg := s.cfg
	r := &runState{
		prog:        prog,
		pred:        pred,
		st:          st,
		lvReady:     make([]int64, len(prog.Insts)),
		lvLast:      make([]uint64, len(prog.Insts)),
		intIQ:       make([]int64, cfg.IntIQ),
		fpIQ:        make([]int64, cfg.FPIQ),
		window:      make([]int64, cfg.Window),
		dispatchCap: newCapRing(cfg.DispatchWidth),
		issueCap:    newCapRing(cfg.IssueWidth),
		intCap:      newCapRing(cfg.IntALUs),
		lsCap:       newCapRing(cfg.LoadStore),
		fpCap:       newCapRing(cfg.FPUnits),
		commitCap:   newCapRing(cfg.CommitWidth),
		curLine:     ^uint64(0),
		coherent:    true,
	}
	if cfg.PredictPorts > 0 {
		r.portCap = newCapRing(cfg.PredictPorts)
	}
	r.info = buildInfo(prog)
	r.bindPred(pred)
	return r
}

// resetRunState recycles the previous run's buffers for a fresh run on
// the same Sim: rings, queues, and dense per-instruction tables are
// cleared in place, the pendingPred pool carries over (a per-worker
// pool, never shared between Sims), and the decode table survives when
// the program is the same. The result is indistinguishable from a
// freshly allocated runState — TestSimReuseDeterminism proves a reused
// Sim commits the byte-identical stream as a fresh one.
func (s *Sim) resetRunState(r *runState, prog *program.Program, pred core.Predictor, st *emu.State) {
	// Return every live prediction record to the free list. Refcounts are
	// exact (a regPending slot and, under reissue, an activePreds entry),
	// so each record lands in the pool exactly once.
	for _, p := range r.activePreds {
		r.release(p)
	}
	r.activePreds = r.activePreds[:0]
	for i, p := range r.regPending {
		if p != nil {
			r.release(p)
			r.regPending[i] = nil
		}
	}

	if r.prog != prog {
		r.lvReady = make([]int64, len(prog.Insts))
		r.lvLast = make([]uint64, len(prog.Insts))
		r.info = buildInfo(prog)
	} else {
		clear(r.lvReady)
		clear(r.lvLast)
	}
	r.prog, r.pred, r.st = prog, pred, st

	clear(r.intIQ)
	clear(r.fpIQ)
	clear(r.window)
	r.intN, r.fpN, r.winN = 0, 0, 0
	r.intIdx, r.fpIdx, r.winIdx = 0, 0, 0

	// The rings must be cleared, not merely reused: a stale stamp from
	// the prior run would alias a cycle of this one.
	for _, c := range []*capRing{r.dispatchCap, r.issueCap, r.intCap, r.lsCap, r.fpCap, r.commitCap, r.portCap} {
		if c != nil {
			clear(c.ent)
		}
	}

	r.stats = Stats{}
	r.regReady = [isa.NumRegs]int64{}
	r.specUntil = [isa.NumRegs]int64{}
	r.fetchCycle, r.minFetch = 0, 0
	r.fetchSlots, r.fetchBlocks = 0, 0
	r.curLine = ^uint64(0)
	r.lastDispatch, r.lastCommit, r.lastCycle = 0, 0, 0
	r.lastCkpt, r.lastProg = 0, 0
	r.coherent = true
	r.bindPred(pred)
}

// buildInfo decodes every static instruction once; the loop indexes this
// table instead of re-deriving class/latency/sources per commit.
func buildInfo(prog *program.Program) []instInfo {
	info := make([]instInfo, len(prog.Insts))
	for i, in := range prog.Insts {
		cls := isa.Classify(in.Op)
		inf := instInfo{
			cls:    cls,
			lat:    int64(cls.Latency()),
			useFPQ: cls == isa.ClassFPAdd || cls == isa.ClassFPMul || cls == isa.ClassFPDiv,
			isMem:  cls == isa.ClassLoad || cls == isa.ClassStore,
		}
		srcs := in.Sources(inf.srcs[:0])
		inf.nsrc = uint8(len(srcs))
		info[i] = inf
	}
	return info
}

// bindPred devirtualizes the four built-in predictors (and skips the
// baseline's no-op calls entirely); anything else stays on the interface
// path. It also pre-sizes per-static-instruction predictor state so the
// commit path never grows a slice mid-run.
func (r *runState) bindPred(pred core.Predictor) {
	r.predKind, r.drvp, r.srvp, r.lvp, r.grvp = predGeneric, nil, nil, nil, nil
	switch p := pred.(type) {
	case core.NoPredictor:
		r.predKind = predNone
	case *core.DynamicRVP:
		r.predKind, r.drvp = predDynamic, p
	case *core.StaticRVP:
		r.predKind, r.srvp = predStatic, p
	case *core.LVP:
		r.predKind, r.lvp = predLVP, p
	case *core.GabbayRVP:
		r.predKind, r.grvp = predGabbay, p
	}
	if sh, ok := pred.(core.SizeHinter); ok {
		sh.SizeHint(len(r.info))
	}
}

// decide dispatches Decide through the devirtualized fast path.
func (r *runState) decide(idx int, in isa.Inst) core.Decision {
	switch r.predKind {
	case predNone:
		return core.Decision{}
	case predDynamic:
		return r.drvp.Decide(idx, in)
	case predStatic:
		return r.srvp.Decide(idx, in)
	case predLVP:
		return r.lvp.Decide(idx, in)
	case predGabbay:
		return r.grvp.Decide(idx, in)
	}
	return r.pred.Decide(idx, in)
}

// commitPred dispatches Commit through the devirtualized fast path.
func (r *runState) commitPred(idx int, in isa.Inst, predicted, actual uint64) {
	switch r.predKind {
	case predNone:
	case predDynamic:
		r.drvp.Commit(idx, in, predicted, actual)
	case predStatic:
		r.srvp.Commit(idx, in, predicted, actual)
	case predLVP:
		r.lvp.Commit(idx, in, predicted, actual)
	case predGabbay:
		r.grvp.Commit(idx, in, predicted, actual)
	default:
		r.pred.Commit(idx, in, predicted, actual)
	}
}

// newPending takes a record from the free list (or allocates during
// warm-up, before the pool has grown to the run's in-flight high-water
// mark). The caller owns the first reference via retain.
func (r *runState) newPending(verifyAt, doneAt int64, wrong bool) *pendingPred {
	if n := len(r.predFree); n > 0 {
		p := r.predFree[n-1]
		r.predFree = r.predFree[:n-1]
		*p = pendingPred{verifyAt: verifyAt, doneAt: doneAt, wrong: wrong}
		return p
	}
	return &pendingPred{verifyAt: verifyAt, doneAt: doneAt, wrong: wrong}
}

func (r *runState) retain(p *pendingPred) { p.refs++ }

// release drops one reference, returning the record to the pool when no
// regPending slot or activePreds entry still points at it.
func (r *runState) release(p *pendingPred) {
	p.refs--
	if p.refs == 0 {
		r.predFree = append(r.predFree, p)
	}
}

// Run simulates prog under value predictor pred for at most maxInsts
// committed instructions (0 = until HALT) and returns the statistics.
func (s *Sim) Run(prog *program.Program, pred core.Predictor, maxInsts uint64) (Stats, error) {
	return s.RunWarmedContext(context.Background(), nil, prog, pred, maxInsts)
}

// RunWarmedContext runs prog from warm's architectural state, or from
// the program's initial state when warm is nil. Either way every
// microarchitectural structure — caches, TLBs, branch predictor, value
// predictor, timing state — starts cold. The emulator begins at warm's
// boundary, registers and memory via a copy-on-write fork. maxInsts
// bounds the measured phase: committed instructions after the warmup
// boundary (Stats.Committed starts at 0).
//
// Cancellation and deadlines are observed at commit-batch granularity:
// the run stops within one batch of ctx ending, returning coherent
// partial Stats and an error wrapping ctx.Err(). When
// cfg.WatchdogCycles > 0, a forward-progress watchdog aborts with an
// error wrapping simerr.ErrNoProgress if no instruction commits for more
// than that many simulated cycles.
func (s *Sim) RunWarmedContext(ctx context.Context, warm *WarmState, prog *program.Program, pred core.Predictor, maxInsts uint64) (Stats, error) {
	var st *emu.State
	var err error
	if warm != nil {
		st, err = warm.Fork(prog)
	} else if st, err = emu.New(prog); err != nil {
		err = simerr.New("emu", err)
	}
	if err != nil {
		return Stats{}, err
	}
	if err := s.startRun(pred); err != nil {
		return Stats{}, err
	}
	r := s.newRunState(prog, pred, st)
	s.cur = r
	return s.loop(ctx, r, maxInsts)
}

// startRun (re)builds the per-run microarchitectural subsystems. The
// memory hierarchy and branch predictor are allocated once per Sim and
// reset between runs: their geometry is fixed by the config, and reuse
// keeps N parallel simulators from reallocating ~100KB of tag arrays
// per run.
func (s *Sim) startRun(pred core.Predictor) error {
	if s.hier == nil {
		h, err := mem.NewHierarchy(s.cfg.Mem)
		if err != nil {
			return simerr.New("mem", err)
		}
		s.hier = h
	} else {
		s.hier.Reset()
	}
	if s.bp == nil {
		s.bp = bpred.New(s.cfg.Bpred)
	} else {
		s.bp.Reset()
	}
	pred.Reset()
	return nil
}

// ResumeContext continues a run from a Snapshot: the simulator state is
// rebuilt exactly as it was when the snapshot was taken, and simulation
// proceeds until maxInsts *total* committed instructions (0 = until
// HALT). The restored run commits the identical instruction/value stream
// — and ends with identical Stats — as an uninterrupted run of the same
// program, predictor, and configuration.
//
// prog must be the same program the snapshot was taken from, and pred a
// predictor constructed identically to the original (its dynamic state
// is overwritten from the snapshot; it must implement
// core.Checkpointable), and the Sim's configuration must be the one the
// snapshot was taken under. Mismatches are rejected with errors wrapping
// simerr.ErrCorrupt, not silently misrestored.
func (s *Sim) ResumeContext(ctx context.Context, snap *Snapshot, prog *program.Program, pred core.Predictor, maxInsts uint64) (Stats, error) {
	if snap == nil {
		return Stats{}, simerr.Newf("checkpoint", "nil snapshot")
	}
	if err := snap.validateFor(s.cfg, prog, pred); err != nil {
		return Stats{}, err
	}
	st, err := emu.Restore(prog, snap.Emu)
	if err != nil {
		return Stats{}, simerr.New("checkpoint", err)
	}
	if err := s.startRun(pred); err != nil {
		return Stats{}, err
	}
	if err := s.hier.Restore(snap.Mem); err != nil {
		return Stats{}, simerr.New("checkpoint", err)
	}
	if err := s.bp.Restore(snap.Bpred); err != nil {
		return Stats{}, simerr.New("checkpoint", err)
	}
	if err := pred.(core.Checkpointable).RestoreState(snap.Predictor); err != nil {
		return Stats{}, simerr.New("checkpoint", err)
	}
	r, err := s.restoreRunState(snap, prog, pred, st)
	if err != nil {
		return Stats{}, err
	}
	s.cur = r
	return s.loop(ctx, r, maxInsts)
}

// loop is the simulation main loop, shared by fresh and resumed runs.
func (s *Sim) loop(ctx context.Context, r *runState, maxInsts uint64) (Stats, error) {
	cfg := s.cfg
	prog, pred, st := r.prog, r.pred, r.st
	var e emu.Exec // reused across iterations (StepInto)

	h := &s.hooks

	// Observability: batched metrics (when a registry is attached) and
	// per-instruction events (when sinks are).
	var m *meters
	if reg := h.Observer.Registry(); reg != nil {
		m = newMeters(reg)
	}
	emitEvents := h.Observer.HasSinks()
	var ev obs.Event

	resetFetch := func(to int64) {
		r.fetchCycle = to
		r.fetchSlots = 0
		r.fetchBlocks = 0
		r.curLine = ^uint64(0)
	}

	// finalize publishes end-of-run statistics. It runs on every exit
	// path — normal completion, oracle error, cancellation, watchdog,
	// injected fault — so aborted runs still return coherent partial
	// Stats.
	finalize := func() {
		r.stats.Cycles = r.lastCycle
		r.stats.DL1Hits, r.stats.DL1Misses = s.hier.L1D.Hits, s.hier.L1D.Misses
		r.stats.IL1Hits, r.stats.IL1Misses = s.hier.L1I.Hits, s.hier.L1I.Misses
		r.stats.L2Hits, r.stats.L2Misses = s.hier.L2.Hits, s.hier.L2.Misses
		r.stats.CondBranches = s.bp.CondSeen
		r.stats.CondMispredict = s.bp.CondMispred
		r.stats.TargetMispred = s.bp.TargetMiss + s.bp.RASWrong
		if m != nil {
			m.flush(&r.stats)
			s.hier.PublishMetrics(m.reg)
			s.bp.PublishMetrics(m.reg)
			if pub, ok := pred.(obs.Publisher); ok {
				pub.PublishMetrics(m.reg)
			}
		}
	}

	wd := int64(cfg.WatchdogCycles)

	for {
		if maxInsts > 0 && r.stats.Committed >= maxInsts {
			break
		}
		if r.stats.Committed&(commitBatch-1) == 0 {
			if err := ctx.Err(); err != nil {
				finalize()
				return r.stats, &simerr.SimError{
					Stage: "pipeline", Workload: prog.Name,
					Cycle: r.lastCycle, HasCycle: true, Err: err,
				}
			}
			if h.Faults != nil {
				if err := h.Faults.CheckPoint(r.stats.Committed, r.lastCycle); err != nil {
					finalize()
					return r.stats, &simerr.SimError{
						Stage: "faultinject", Workload: prog.Name,
						Cycle: r.lastCycle, HasCycle: true, Err: err,
					}
				}
			}
			if h.OnProgress != nil && h.ProgressEvery > 0 && r.stats.Committed >= r.lastProg+h.ProgressEvery {
				r.lastProg = r.stats.Committed
				h.OnProgress(r.stats.Committed, r.lastCycle)
			}
			if h.OnCheckpoint != nil && h.CheckpointEvery > 0 && r.stats.Committed >= r.lastCkpt+h.CheckpointEvery {
				r.lastCkpt = r.stats.Committed
				snap, err := s.buildSnapshot(r)
				if err == nil {
					err = h.OnCheckpoint(snap)
				}
				if err != nil {
					finalize()
					return r.stats, &simerr.SimError{
						Stage: "checkpoint", Workload: prog.Name,
						Cycle: r.lastCycle, HasCycle: true, Err: err,
					}
				}
			}
		}
		r.coherent = false
		ok := st.StepInto(&e)
		if !ok {
			if st.Err() != nil {
				finalize()
				return r.stats, &simerr.SimError{
					Stage: "emu", Workload: prog.Name,
					Cycle: r.lastCycle, HasCycle: true,
					Err: fmt.Errorf("oracle: %w", st.Err()),
				}
			}
			r.coherent = true
			break
		}
		in := e.Inst
		idx := e.Index
		inf := &r.info[idx]
		cls := inf.cls
		srcs := inf.srcs[:inf.nsrc]

		// ---- Refetch-recovery trigger: first use of a mispredicted value
		// squashes from this instruction onward.
		if cfg.Recovery == RecoverRefetch {
			for _, reg := range srcs {
				if reg.IsZero() {
					continue
				}
				if p := r.regPending[reg]; p != nil && p.wrong && !p.useSeen {
					p.useSeen = true
					redirect := p.doneAt + int64(cfg.MispredPenalty)
					if redirect > r.minFetch {
						r.minFetch = redirect
					}
					r.stats.Refetches++
				}
			}
		}

		// ---- Fetch.
		if r.fetchCycle < r.minFetch {
			resetFetch(r.minFetch)
		}
		line := e.PC &^ 63
		if line != r.curLine {
			if lat := s.hier.AccessInstAt(e.PC, r.fetchCycle); lat > 0 {
				resetFetch(r.fetchCycle + int64(lat))
			}
			r.curLine = line
		}
		if r.fetchSlots >= cfg.FetchWidth {
			resetFetch(r.fetchCycle + 1)
			r.curLine = line
		}
		myFetch := r.fetchCycle
		r.fetchSlots++

		// ---- Dispatch: in order, gated by window, queue space, and
		// dispatch bandwidth.
		dispatch := myFetch + int64(cfg.FrontLatency)
		if dispatch < r.lastDispatch {
			dispatch = r.lastDispatch
		}
		if r.winN >= uint64(cfg.Window) {
			if t := r.window[r.winIdx]; t > dispatch {
				r.stats.StallWindow += t - dispatch
				dispatch = t
			}
		}
		useFPQ := inf.useFPQ
		if useFPQ {
			if r.fpN >= uint64(cfg.FPIQ) {
				if t := r.fpIQ[r.fpIdx]; t > dispatch {
					r.stats.StallFPIQ += t - dispatch
					dispatch = t
				}
			}
		} else {
			if r.intN >= uint64(cfg.IntIQ) {
				if t := r.intIQ[r.intIdx]; t > dispatch {
					r.stats.StallIntIQ += t - dispatch
					dispatch = t
				}
			}
		}
		dispatch = r.dispatchCap.bookFrom(dispatch)
		r.lastDispatch = dispatch

		// ---- Value prediction decision.
		var dec core.Decision
		var predVal uint64
		var predReady int64
		predicted := false
		correct := false
		if e.WroteRd {
			r.stats.Eligible++
			dec = r.decide(idx, in)
			if h.Faults != nil && dec.Kind != core.KindNone && h.Faults.FlipPredict(idx) {
				dec.Predict = !dec.Predict
			}
			if dec.Kind != core.KindNone || dec.Predict {
				switch dec.Kind {
				case core.KindSameReg:
					predVal = e.OldDest
					predReady = r.regReady[in.Rd]
				case core.KindOtherReg:
					if dec.Reg == in.Rd {
						predVal = e.OldDest
					} else {
						predVal = st.Regs[dec.Reg]
					}
					predReady = r.regReady[dec.Reg]
				case core.KindLastValue:
					predVal = dec.Value
					predReady = r.lvReady[idx]
				case core.KindBuffer:
					predVal = dec.Value
					predReady = dispatch
				}
			}
			if dec.Predict {
				predicted = true
				// Non-load register-source predictions need an extra
				// register read port to fetch the prior value for the
				// verification compare; buffer-based predictions (LVP)
				// come with their own value datapath instead.
				if cls != isa.ClassLoad && dec.Kind != core.KindBuffer && r.portCap != nil {
					if r.portCap.avail(dispatch) {
						r.portCap.book(dispatch)
					} else {
						predicted = false
						r.stats.PortStarved++
					}
				}
			}
			if predicted {
				correct = predVal == e.NewDest
				r.stats.Predicted++
				if correct {
					r.stats.PredictCorrect++
				} else {
					r.stats.PredictWrong++
				}
			}
		}

		// ---- Source operands, first-use detection, selective taint.
		srcReady := dispatch + 1
		var holdUntil int64
		for _, reg := range srcs {
			if reg.IsZero() {
				continue
			}
			if t := r.regReady[reg]; t > srcReady {
				srcReady = t
			}
			if cfg.Recovery == RecoverSelective && r.specUntil[reg] > holdUntil {
				holdUntil = r.specUntil[reg]
			}
			if p := r.regPending[reg]; p != nil && !p.useSeen {
				p.useSeen = true
			}
		}

		// Reissue: every instruction dispatched after a pending
		// prediction's first use stays queued until it verifies.
		if cfg.Recovery == RecoverReissue {
			live := r.activePreds[:0]
			for _, p := range r.activePreds {
				if p.verifyAt > dispatch {
					live = append(live, p)
					if p.useSeen && p.verifyAt > holdUntil {
						holdUntil = p.verifyAt
					}
				} else {
					r.release(p)
				}
			}
			r.activePreds = live
		}

		// ---- Issue: earliest cycle with a free unit and issue slot.
		t := srcReady
		if t < dispatch+1 {
			t = dispatch + 1
		}
		isMem := inf.isMem
		var unit *capRing
		switch cls {
		case isa.ClassFPAdd, isa.ClassFPMul, isa.ClassFPDiv:
			unit = r.fpCap
		default:
			unit = r.intCap
		}
		for {
			if r.issueCap.avail(t) && unit.avail(t) && (!isMem || r.lsCap.avail(t)) {
				break
			}
			t++
		}
		r.issueCap.book(t)
		unit.book(t)
		if isMem {
			r.lsCap.book(t)
		}
		issueAt := t

		// ---- Completion.
		doneAt := issueAt + inf.lat
		if isMem {
			lat := s.hier.AccessDataAt(e.EA, issueAt)
			if h.Faults != nil {
				lat = h.Faults.MemLatency(e.EA, issueAt, lat)
			}
			doneAt += int64(lat)
			if cls == isa.ClassLoad {
				r.stats.Loads++
			} else {
				r.stats.Stores++
			}
		}

		// ---- Prediction verification and destination readiness.
		// taintOut is the speculation horizon this instruction's result
		// carries to its consumers (selective reissue): inherited source
		// taints plus, when predicted, its own verification time. The
		// predicted instruction itself is NOT held in the queue — it
		// cannot reissue; only its dependents are.
		var verifyAt int64
		taintOut := holdUntil
		if e.WroteRd {
			if predicted {
				verifyAt = doneAt
				if predReady > verifyAt {
					verifyAt = predReady
				}
				pp := r.newPending(verifyAt, doneAt, !correct)
				if old := r.regPending[in.Rd]; old != nil {
					r.release(old)
				}
				r.regPending[in.Rd] = pp
				r.retain(pp)
				if cfg.Recovery == RecoverReissue {
					r.activePreds = append(r.activePreds, pp)
					r.retain(pp)
				}
				switch {
				case correct:
					// Consumers read the prior register value.
					rr := predReady
					if doneAt < rr {
						rr = doneAt
					}
					r.regReady[in.Rd] = rr
				case cfg.Recovery == RecoverRefetch:
					r.regReady[in.Rd] = doneAt
				default:
					// Dependents reissue one cycle after the real value.
					r.regReady[in.Rd] = doneAt + 1
				}
				if cfg.Recovery == RecoverSelective && verifyAt > taintOut {
					taintOut = verifyAt
				}
			} else {
				r.regReady[in.Rd] = doneAt
				if old := r.regPending[in.Rd]; old != nil {
					r.release(old)
					r.regPending[in.Rd] = nil
				}
			}
			if cfg.Recovery == RecoverSelective {
				r.specUntil[in.Rd] = taintOut
			}
			if e.NewDest == r.lvLast[idx] {
				if doneAt < r.lvReady[idx] {
					r.lvReady[idx] = doneAt
				}
			} else {
				r.lvReady[idx] = doneAt
				r.lvLast[idx] = e.NewDest
			}
		}

		// ---- Queue slot release.
		qFree := issueAt + 1
		if holdUntil > qFree {
			qFree = holdUntil
		}
		if useFPQ {
			r.fpIQ[r.fpIdx] = qFree
			r.fpN++
			if r.fpIdx++; r.fpIdx == cfg.FPIQ {
				r.fpIdx = 0
			}
		} else {
			r.intIQ[r.intIdx] = qFree
			r.intN++
			if r.intIdx++; r.intIdx == cfg.IntIQ {
				r.intIdx = 0
			}
		}

		// ---- Control transfers: predictor consultation and redirects.
		if e.IsCTI {
			r.stats.Branches++
			s.handleCTI(&e, idx, myFetch, doneAt, &r.minFetch, &r.fetchBlocks)
		}

		// ---- Commit: in order, after completion and verification.
		commitAt := doneAt + 1
		if predicted && verifyAt+1 > commitAt {
			commitAt = verifyAt + 1
		}
		if commitAt < r.lastCommit {
			commitAt = r.lastCommit
		}
		commitAt = r.commitCap.bookFrom(commitAt)
		if wd > 0 && commitAt-r.lastCommit > wd {
			finalize()
			return r.stats, &simerr.SimError{
				Stage: "pipeline", Workload: prog.Name,
				PC: e.PC, Cycle: commitAt, HasPC: true, HasCycle: true,
				Err: fmt.Errorf("no commit for %d cycles (watchdog %d): %w",
					commitAt-r.lastCommit, wd, simerr.ErrNoProgress),
			}
		}
		r.lastCommit = commitAt
		r.window[r.winIdx] = commitAt
		r.winN++
		if r.winIdx++; r.winIdx == cfg.Window {
			r.winIdx = 0
		}
		if commitAt > r.lastCycle {
			r.lastCycle = commitAt
		}
		r.stats.Committed++
		if m != nil {
			m.observe(commitAt-myFetch, issueAt-dispatch, commitAt-dispatch)
			if r.stats.Committed&(flushEvery-1) == 0 {
				m.flush(&r.stats)
			}
		}

		// ---- Train the value predictor (in program order).
		if e.WroteRd {
			r.commitPred(idx, in, predVal, e.NewDest)
		}

		if emitEvents {
			ev = obs.Event{
				Seq:       r.stats.Committed - 1,
				Index:     idx,
				Fetch:     myFetch,
				Dispatch:  dispatch,
				Issue:     issueAt,
				Done:      doneAt,
				Commit:    commitAt,
				Predicted: predicted,
				Correct:   correct,
				PC:        e.PC,
				WroteRd:   e.WroteRd,
				Rd:        int(in.Rd),
				Value:     e.NewDest,
			}
			h.Observer.Emit(&ev)
		}

		r.coherent = true
		if in.Op == isa.HALT {
			break
		}
	}

	finalize()
	return r.stats, nil
}

// handleCTI models the front end's interaction with one control transfer:
// direction prediction, target prediction, taken-branch fetch breaks, and
// redirect penalties for mispredictions.
func (s *Sim) handleCTI(e *emu.Exec, idx int, myFetch, doneAt int64, minFetch *int64, fetchBlocks *int) {
	cfg := s.cfg
	redirect := func(at int64) {
		if at > *minFetch {
			*minFetch = at
		}
	}
	takenBreak := func() {
		*fetchBlocks++
		if *fetchBlocks >= cfg.MaxFetchBlocks {
			// The fetch unit cannot follow another taken branch this
			// cycle; fetch resumes next cycle.
			redirect(myFetch + 1)
		}
	}
	switch {
	case isa.IsCondBranch(e.Inst.Op):
		predTaken := s.bp.PredictCond(idx)
		dirCorrect := s.bp.UpdateCond(idx, e.Taken, predTaken)
		if !dirCorrect {
			redirect(doneAt + int64(cfg.MispredPenalty))
			return
		}
		if !e.Taken {
			return // correctly predicted not-taken: no fetch break
		}
		tgt, ok := s.bp.PredictTarget(e.Inst.Op, idx)
		if s.bp.UpdateTarget(e.Inst.Op, idx, e.Next, tgt, ok) {
			takenBreak()
		} else {
			// Direction known taken but target unknown in the BTB: the
			// target is static, so decode redirects (misfetch).
			redirect(myFetch + int64(cfg.MisfetchPenalty))
		}
	case e.Inst.Op == isa.BR:
		if e.Inst.Rd == isa.RRA {
			s.bp.OnFetchCall(e.Index + 1)
		}
		tgt, ok := s.bp.PredictTarget(e.Inst.Op, idx)
		if s.bp.UpdateTarget(e.Inst.Op, idx, e.Next, tgt, ok) {
			takenBreak()
		} else {
			redirect(myFetch + int64(cfg.MisfetchPenalty))
		}
	case e.Inst.Op == isa.JSR:
		s.bp.OnFetchCall(e.Index + 1)
		tgt, ok := s.bp.PredictTarget(e.Inst.Op, idx)
		if s.bp.UpdateTarget(e.Inst.Op, idx, e.Next, tgt, ok) {
			takenBreak()
		} else {
			// Register-indirect target: resolved at execute.
			redirect(doneAt + int64(cfg.MispredPenalty))
		}
	case e.Inst.Op == isa.RET:
		tgt, ok := s.bp.PredictTarget(e.Inst.Op, idx)
		s.bp.OnFetchReturn()
		if s.bp.UpdateTarget(e.Inst.Op, idx, e.Next, tgt, ok) {
			takenBreak()
		} else {
			redirect(doneAt + int64(cfg.MispredPenalty))
		}
	}
}
