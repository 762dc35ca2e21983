package pipeline

import (
	"fmt"

	"rvpsim/internal/bpred"
	"rvpsim/internal/core"
	"rvpsim/internal/emu"
	"rvpsim/internal/isa"
	"rvpsim/internal/mem"
	"rvpsim/internal/program"
	"rvpsim/internal/simerr"
)

// Snapshot is the complete, serializable state of a run at an
// instruction boundary: architectural state (registers + memory image),
// every microarchitectural table (caches, TLBs, branch predictor, value
// predictor), the accumulated Stats, and the timing model's internal
// position. Resuming from a Snapshot commits the identical
// instruction/value stream — and produces identical final Stats — as
// the uninterrupted run it was taken from.
//
// All fields are exported plain data so the struct round-trips through
// encoding/gob (see internal/checkpoint for the on-disk format).
type Snapshot struct {
	Program  string // program name, for identity validation
	NumInsts int    // static instruction count, ditto
	Config   Config // the machine that produced this snapshot

	Stats Stats

	Emu   emu.Snapshot
	Mem   mem.HierarchyState
	Bpred bpred.State

	PredictorName string
	Predictor     core.PredictorState // nil if the predictor is not Checkpointable

	Timing TimingState
}

// TimingState is the timing model's internal position: per-register and
// per-static-instruction ready cycles, queue occupancy rings, bandwidth
// books, front-end state, and in-flight prediction bookkeeping.
type TimingState struct {
	RegReady  [isa.NumRegs]int64
	SpecUntil [isa.NumRegs]int64

	// In-flight predictions. regPending entries and the reissue-scheme
	// active list share *pendingPred pointers, so they serialize as
	// indices into Pendings (-1 = none) and aliasing survives the
	// round trip.
	Pendings    []PendingPredState
	RegPending  [isa.NumRegs]int32
	ActivePreds []int32

	LVReady []int64
	LVLast  []uint64

	IntIQ  []int64
	FPIQ   []int64
	Window []int64
	IntN   uint64
	FPN    uint64
	WinN   uint64

	DispatchCap []RingSlot
	IssueCap    []RingSlot
	IntCap      []RingSlot
	LSCap       []RingSlot
	FPCap       []RingSlot
	CommitCap   []RingSlot
	PortCap     []RingSlot

	FetchCycle  int64
	MinFetch    int64
	FetchSlots  int
	FetchBlocks int
	CurLine     uint64

	LastDispatch int64
	LastCommit   int64
	LastCycle    int64
}

// PendingPredState serializes one pendingPred.
type PendingPredState struct {
	VerifyAt int64
	DoneAt   int64
	Wrong    bool
	UseSeen  bool
}

// RingSlot is one live capRing entry. Rings are serialized sparsely:
// only slots whose stamp is at or after the snapshot's booking floor
// matter (see capRing.snapshot), so a snapshot carries a few hundred
// entries rather than 64K per ring.
type RingSlot struct {
	Slot  int32
	Stamp int64
	Count int32
}

// snapshot captures the ring's live entries. floor is the earliest cycle
// any future booking or query can touch (the minimum of the last
// in-order dispatch and last in-order commit): entries stamped before it
// are either dead or indistinguishable from an unbooked slot at every
// reachable cycle, so dropping them is exact, not approximate.
func (c *capRing) snapshot(floor int64) []RingSlot {
	var out []RingSlot
	for i, e := range c.ent {
		st, cnt := int64(e>>capCountBits), int32(e&capCountMask)
		if cnt != 0 && st >= floor {
			out = append(out, RingSlot{Slot: int32(i), Stamp: st, Count: cnt})
		}
	}
	return out
}

// restore loads sparse entries into a freshly zeroed ring.
func (c *capRing) restore(slots []RingSlot) error {
	for _, s := range slots {
		if s.Slot < 0 || int(s.Slot) >= capRingSize {
			return fmt.Errorf("pipeline: ring slot %d out of range: %w", s.Slot, simerr.ErrCorrupt)
		}
		if s.Stamp < 0 || s.Count < 0 || s.Count > capCountMask {
			return fmt.Errorf("pipeline: ring slot %d stamp/count out of range: %w", s.Slot, simerr.ErrCorrupt)
		}
		c.ent[s.Slot] = uint64(s.Stamp)<<capCountBits | uint64(s.Count)
	}
	return nil
}

// Snapshot captures the current run's complete state. It is valid while
// a run is at an instruction boundary: during a Hooks.OnCheckpoint
// callback, or after a run or resume returned at an instruction boundary
// (normal completion, maxInsts bound, context cancellation, fault-
// injector checkpoint error). A watchdog or oracle abort leaves the
// simulator mid-instruction and is rejected.
func (s *Sim) Snapshot() (*Snapshot, error) {
	r := s.cur
	if r == nil {
		return nil, simerr.Newf("checkpoint", "no run to snapshot (nothing has run)")
	}
	if !r.coherent {
		return nil, simerr.Newf("checkpoint", "run stopped mid-instruction; state is not snapshot-coherent")
	}
	return s.buildSnapshot(r)
}

// buildSnapshot serializes r. The caller guarantees r is coherent.
func (s *Sim) buildSnapshot(r *runState) (*Snapshot, error) {
	snap := &Snapshot{
		Program:       r.prog.Name,
		NumInsts:      len(r.prog.Insts),
		Config:        s.cfg,
		Stats:         r.stats,
		Emu:           r.st.Snapshot(),
		Mem:           s.hier.Snapshot(),
		Bpred:         s.bp.Snapshot(),
		PredictorName: r.pred.Name(),
	}
	if cp, ok := r.pred.(core.Checkpointable); ok {
		snap.Predictor = cp.SnapshotState()
	}

	t := &snap.Timing
	t.RegReady = r.regReady
	t.SpecUntil = r.specUntil
	t.LVReady = append([]int64(nil), r.lvReady...)
	t.LVLast = append([]uint64(nil), r.lvLast...)
	t.IntIQ = append([]int64(nil), r.intIQ...)
	t.FPIQ = append([]int64(nil), r.fpIQ...)
	t.Window = append([]int64(nil), r.window...)
	t.IntN, t.FPN, t.WinN = r.intN, r.fpN, r.winN

	floor := r.lastDispatch
	if r.lastCommit < floor {
		floor = r.lastCommit
	}
	t.DispatchCap = r.dispatchCap.snapshot(floor)
	t.IssueCap = r.issueCap.snapshot(floor)
	t.IntCap = r.intCap.snapshot(floor)
	t.LSCap = r.lsCap.snapshot(floor)
	t.FPCap = r.fpCap.snapshot(floor)
	t.CommitCap = r.commitCap.snapshot(floor)
	if r.portCap != nil {
		t.PortCap = r.portCap.snapshot(floor)
	}

	t.FetchCycle, t.MinFetch = r.fetchCycle, r.minFetch
	t.FetchSlots, t.FetchBlocks = r.fetchSlots, r.fetchBlocks
	t.CurLine = r.curLine
	t.LastDispatch, t.LastCommit, t.LastCycle = r.lastDispatch, r.lastCommit, r.lastCycle

	// Dedup shared pendingPred pointers into an index space.
	index := make(map[*pendingPred]int32)
	add := func(p *pendingPred) int32 {
		if p == nil {
			return -1
		}
		if i, ok := index[p]; ok {
			return i
		}
		i := int32(len(t.Pendings))
		index[p] = i
		t.Pendings = append(t.Pendings, PendingPredState{
			VerifyAt: p.verifyAt, DoneAt: p.doneAt, Wrong: p.wrong, UseSeen: p.useSeen,
		})
		return i
	}
	for i, p := range r.regPending {
		t.RegPending[i] = add(p)
	}
	for _, p := range r.activePreds {
		t.ActivePreds = append(t.ActivePreds, add(p))
	}
	return snap, nil
}

// validateFor checks that a snapshot belongs to (cfg, prog, pred) before
// a resume. Identity mismatches wrap simerr.ErrCorrupt: the snapshot may
// be internally intact, but restoring it here would silently compute
// garbage, which is the same failure class for the caller.
func (snap *Snapshot) validateFor(cfg Config, prog *program.Program, pred core.Predictor) error {
	if prog == nil {
		return simerr.Newf("checkpoint", "nil program")
	}
	if snap.Program != prog.Name || snap.NumInsts != len(prog.Insts) {
		return simerr.New("checkpoint", fmt.Errorf(
			"snapshot is for program %q (%d insts), not %q (%d insts): %w",
			snap.Program, snap.NumInsts, prog.Name, len(prog.Insts), simerr.ErrCorrupt))
	}
	if snap.Config != cfg {
		return simerr.New("checkpoint", fmt.Errorf(
			"snapshot machine configuration does not match the simulator: %w", simerr.ErrCorrupt))
	}
	if snap.PredictorName != pred.Name() {
		return simerr.New("checkpoint", fmt.Errorf(
			"snapshot is for predictor %q, not %q: %w", snap.PredictorName, pred.Name(), simerr.ErrCorrupt))
	}
	if _, ok := pred.(core.Checkpointable); !ok {
		return simerr.Newf("checkpoint", "predictor %q does not support checkpoint restore", pred.Name())
	}
	if snap.Predictor == nil {
		return simerr.New("checkpoint", fmt.Errorf(
			"snapshot carries no predictor state: %w", simerr.ErrCorrupt))
	}
	return nil
}

// restoreRunState rebuilds the timing state from a validated snapshot.
func (s *Sim) restoreRunState(snap *Snapshot, prog *program.Program, pred core.Predictor, st *emu.State) (*runState, error) {
	cfg := s.cfg
	t := &snap.Timing
	r := s.newRunState(prog, pred, st)
	// Not snapshot-coherent until the restore completes: newRunState may
	// have recycled the previous run's state in place, so a failed
	// restore must not leave a half-written state that Snapshot would
	// happily serialize.
	r.coherent = false

	bad := func(what string) (*runState, error) {
		return nil, simerr.New("checkpoint", fmt.Errorf("snapshot %s does not match the configuration: %w", what, simerr.ErrCorrupt))
	}
	if len(t.LVReady) != len(prog.Insts) || len(t.LVLast) != len(prog.Insts) {
		return bad("per-instruction state size")
	}
	if len(t.IntIQ) != cfg.IntIQ || len(t.FPIQ) != cfg.FPIQ || len(t.Window) != cfg.Window {
		return bad("queue geometry")
	}
	if len(t.PortCap) > 0 && r.portCap == nil {
		return bad("predict-port booking")
	}

	r.stats = snap.Stats
	r.regReady = t.RegReady
	r.specUntil = t.SpecUntil
	copy(r.lvReady, t.LVReady)
	copy(r.lvLast, t.LVLast)
	copy(r.intIQ, t.IntIQ)
	copy(r.fpIQ, t.FPIQ)
	copy(r.window, t.Window)
	r.intN, r.fpN, r.winN = t.IntN, t.FPN, t.WinN
	r.intIdx = int(t.IntN % uint64(cfg.IntIQ))
	r.fpIdx = int(t.FPN % uint64(cfg.FPIQ))
	r.winIdx = int(t.WinN % uint64(cfg.Window))

	rings := []struct {
		ring  *capRing
		slots []RingSlot
	}{
		{r.dispatchCap, t.DispatchCap},
		{r.issueCap, t.IssueCap},
		{r.intCap, t.IntCap},
		{r.lsCap, t.LSCap},
		{r.fpCap, t.FPCap},
		{r.commitCap, t.CommitCap},
	}
	if r.portCap != nil {
		rings = append(rings, struct {
			ring  *capRing
			slots []RingSlot
		}{r.portCap, t.PortCap})
	}
	for _, rr := range rings {
		if err := rr.ring.restore(rr.slots); err != nil {
			return nil, err
		}
	}

	r.fetchCycle, r.minFetch = t.FetchCycle, t.MinFetch
	r.fetchSlots, r.fetchBlocks = t.FetchSlots, t.FetchBlocks
	r.curLine = t.CurLine
	r.lastDispatch, r.lastCommit, r.lastCycle = t.LastDispatch, t.LastCommit, t.LastCycle

	// Rebuild the shared pendingPred pointer graph from indices.
	pendings := make([]*pendingPred, len(t.Pendings))
	for i, p := range t.Pendings {
		pendings[i] = &pendingPred{verifyAt: p.VerifyAt, doneAt: p.DoneAt, wrong: p.Wrong, useSeen: p.UseSeen}
	}
	lookup := func(i int32) (*pendingPred, error) {
		if i == -1 {
			return nil, nil
		}
		if i < 0 || int(i) >= len(pendings) {
			return nil, simerr.New("checkpoint", fmt.Errorf("pending-prediction index %d out of range: %w", i, simerr.ErrCorrupt))
		}
		return pendings[i], nil
	}
	for i, pi := range t.RegPending {
		p, err := lookup(pi)
		if err != nil {
			return nil, err
		}
		r.regPending[i] = p
		if p != nil {
			r.retain(p)
		}
	}
	for _, pi := range t.ActivePreds {
		p, err := lookup(pi)
		if err != nil {
			return nil, err
		}
		if p == nil {
			return nil, simerr.New("checkpoint", fmt.Errorf("nil active prediction in snapshot: %w", simerr.ErrCorrupt))
		}
		r.activePreds = append(r.activePreds, p)
		r.retain(p)
	}

	// Suppress an immediate re-checkpoint at the first batch boundary;
	// checkpoint cadence restarts from the resume point.
	r.lastCkpt = snap.Stats.Committed
	r.coherent = true
	return r, nil
}
