package smcore

import (
	"math/bits"
	"slices"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/regfile"
	"repro/internal/stats"
	"repro/internal/trace"
)

// execUnit models the SIMD pipelines of one class within a sub-core. A
// Volta sub-core has one 16-lane FP32 pipe; the hypothetical
// fully-connected SM pools four of them, so lane budgets above the native
// pipe width become additional dispatch ports rather than one wider pipe.
type execUnit struct {
	ii int64 // initiation interval, from the configured lane count
	euState
}

// euState is an execution unit's mutable state (plain data, walked by
// snapshot.State): each pipe's next-free cycle.
type euState struct {
	ports []int64 `snap:"fixed"`
}

// newExecUnit builds a unit of lanes (>= 1, config.Validate) in pipes of
// pipeWidth; fewer lanes than the pipe width make one narrower pipe.
func newExecUnit(lanes, pipeWidth int) execUnit {
	return pipes(int64(isa.InitiationInterval(min(lanes, pipeWidth))), max(lanes/pipeWidth, 1))
}

// pipes builds a unit of n idle pipes with initiation interval ii.
func pipes(ii int64, n int) execUnit {
	return execUnit{ii: ii, euState: euState{ports: make([]int64, n)}}
}

// tryAccept starts an op on the first idle pipe and reports whether one
// took it.
func (e *execUnit) tryAccept(now int64) bool {
	for i, p := range e.ports {
		if p <= now {
			e.ports[i] = now + e.ii
			return true
		}
	}
	return false
}

// maxSlots is the widest sub-core the masks cover (config.Validate).
const maxSlots = core.MaxSlots

// readySet is a sub-core's issue-stage view of its warp slots: one bit per
// scheduler slot in each mask, plus what the RBA walk reads of a ready
// warp: its head instruction's source banks. It is derived state — a pure
// function of the slot table and the warps, recomputed one slot at a time
// by SubCore.reclass at exactly the events that can change a warp's
// eligibility (issue, a writeback clearing a scoreboard bit, decode refill,
// barrier arrival and release, exit, and slot host/release) — so the
// per-cycle stages read masks instead of re-deriving every warp's state.
// SM.Audit's readyset law recomputes it from scratch; no frame carries it.
type readySet struct {
	// Lifecycle state of each occupied slot's warp; their union is the
	// occupied slots.
	active, atBarrier, finished uint64
	// ready warps are active with a decoded, hazard-free head instruction:
	// the scheduler's candidates. hazard warps have a decoded head blocked
	// by the scoreboard (or an EXIT/BAR draining outstanding writes).
	ready, hazard uint64
	// decode warps are active with instruction-buffer room and program left:
	// placed this cycle or released from a barrier (consume refills the rest).
	decode uint64
	// needCU marks ready warps whose head can only issue into a free
	// collector unit: it reads registers and holds no stolen CU.
	needCU uint64
	// banks caches each ready warp's head source banks, which the scheduler
	// reads beside the ready bits, not the warp table. An unused operand
	// holds the bank count — one past the last bank, whose queue length
	// reads zero (SubCore.qlenBuf) — so a score is three loads, no branch.
	banks [maxSlots][3]uint16
}

// set recomputes slot's bits from its warp (nil = the slot is empty).
func (rs *readySet) set(slot int, w *Warp, banks int) {
	bit := uint64(1) << uint(slot)
	rs.active &^= bit
	rs.atBarrier &^= bit
	rs.finished &^= bit
	rs.ready &^= bit
	rs.hazard &^= bit
	rs.decode &^= bit
	rs.needCU &^= bit
	rs.banks[slot] = [3]uint16{}
	if w == nil {
		return
	}
	switch w.State {
	case WarpEmpty:
		return
	case WarpAtBarrier:
		rs.atBarrier |= bit // acts only through other warps' issues
		return
	case WarpFinished:
		rs.finished |= bit
		return
	}
	rs.active |= bit
	if w.IBufN < 2 && int64(w.IBufN) < w.Cursor.Left() {
		rs.decode |= bit
	}
	if w.IBufN == 0 {
		return
	}
	in := w.Cursor.Head()
	// EXIT and BAR drain outstanding writes first.
	drains := in.Op.IsExit() || in.Op.IsBarrier()
	if !w.SBEmpty() && (drains || w.Hazard(in)) {
		rs.hazard |= bit // cleared by a writeback, tracked in the wb heap
		return
	}
	rs.ready |= bit
	sb := &rs.banks[slot]
	for i, src := range in.Srcs {
		b := banks // no operand: the always-idle bank past the last
		if src.Valid() {
			b = regfile.BankWithOffset(int(w.BankOff), src, banks)
		}
		sb[i] = uint16(b)
	}
	// Mirrors tryIssue: EXIT, BAR, NOP and zero-source ops bypass the
	// collector, and a stolen pre-allocation converts in place.
	if in.HasSrc() && !drains && in.Op != isa.OpNOP && w.StolenCU < 0 {
		rs.needCU |= bit
	}
}

// SubCore is one partition of an SM: a warp scheduler (or several, for the
// fully-connected model), a slice of the register file with its operand
// collector, and private execution units. Whether it sleeps is one bit of
// its SM's awake mask.
type SubCore struct {
	id  int
	cfg *config.GPU
	sm  *SM

	subCoreState

	// rs is the event-maintained ready set over slots. order, the occupied
	// slots oldest warp first, is derived too: host appends (ageCounter only
	// grows), release removes, RestoreState sorts.
	rs    readySet
	order []uint8

	sched core.WarpScheduler
	coll  *regfile.Collector
	eu    [isa.NumClasses]execUnit

	st *stats.SubCore

	// tr is the SM's observability handle (nil = not traced, fast path).
	tr *trace.SMT

	// Per-cycle scratch of the issue stage. qlenBuf is the arbiter tap the
	// RBA walk scores against: one entry per bank and a last one that stays
	// zero (readySet.banks). issuable is the mask the scheduler picked from
	// and spent the slots it picked, in order — what stealTick needs to tell
	// which candidates were left over.
	qlenBuf  []int
	issuable uint64
	spent    [maxSlots]uint8
	nSpent   int
}

// subCoreState is the sub-core's own mutable state — the scheduler, the
// collector and the execution units carry theirs: plain data only, walked
// whole by snapshot.State (snapshot.go).
type subCoreState struct {
	slots []int32 `snap:"fixed"` // warp indices into sm.warps; -1 = empty
	// freeRegBytes tracks unallocated register-file capacity.
	freeRegBytes int
}

func newSubCore(id int, cfg *config.GPU, sm *SM, st *stats.SubCore) *SubCore {
	sc := &SubCore{
		id:  id,
		cfg: cfg,
		sm:  sm,
		subCoreState: subCoreState{
			slots:        make([]int32, cfg.WarpsPerSubCore()),
			freeRegBytes: cfg.RegFileKBPerSubCore * 1024,
		},
		sched:   core.NewWarpScheduler(cfg.WarpScheduler),
		coll:    regfile.NewCollector(cfg.CollectorUnitsPerSubCore, cfg.BanksPerSubCore, cfg.RBAScoreLatency, st),
		st:      st,
		qlenBuf: make([]int, cfg.BanksPerSubCore+1),
		order:   make([]uint8, 0, cfg.WarpsPerSubCore()),
	}
	for i := range sc.slots {
		sc.slots[i] = -1
	}
	// Native pipe widths are Volta's: 16-lane FP32/INT pipes, 4-lane SFU.
	// Wider lane budgets (the fully-connected SM) become more pipes.
	sc.eu[isa.ClassFP32] = newExecUnit(cfg.FP32LanesPerSubCore, 16)
	sc.eu[isa.ClassINT] = newExecUnit(cfg.IntLanesPerSubCore, 16)
	sc.eu[isa.ClassSFU] = newExecUnit(cfg.SFULanesPerSubCore, 4)
	sc.eu[isa.ClassTensor] = pipes(4, cfg.TensorPerSubCore)
	// The MEM "unit" is an issue port into the SM-shared LSU; its real
	// acceptance check is the LSU queue's, applied at dispatch.
	sc.eu[isa.ClassMEM] = pipes(1, 1)
	return sc
}

// canHost reports whether the sub-core has a free slot and register space
// for one more warp.
func (sc *SubCore) canHost(regsPerThread int) bool {
	return len(sc.order) < len(sc.slots) && sc.freeRegBytes >= isa.WarpRegBytes(regsPerThread)
}

// host places warp index w into a free slot and reserves registers,
// returning the scheduler slot.
func (sc *SubCore) host(w int32, regsPerThread int) int16 {
	for i := range sc.slots {
		if sc.slots[i] == -1 {
			sc.slots[i] = w
			sc.order = append(sc.order, uint8(i))
			sc.freeRegBytes -= isa.WarpRegBytes(regsPerThread)
			return int16(i)
		}
	}
	panic("smcore: host called with no free slot")
}

// release frees a warp's slot and registers (block completion).
func (sc *SubCore) release(slot int16, regsPerThread int) {
	if sc.slots[slot] == -1 {
		panic("smcore: releasing an empty slot")
	}
	sc.slots[slot] = -1
	i := slices.Index(sc.order, uint8(slot))
	sc.order = slices.Delete(sc.order, i, i+1)
	sc.freeRegBytes += isa.WarpRegBytes(regsPerThread)
	sc.reclass(int(slot))
}

// reclass recomputes slot's ready-set bits from its warp. Every mutation
// that can change a warp's eligibility calls it on the owning sub-core at
// the mutation — barrier release and block retirement reach across
// sub-cores mid-cycle, so it cannot be deferred to the owner's next tick.
func (sc *SubCore) reclass(slot int) {
	var w *Warp
	if wi := sc.slots[slot]; wi >= 0 {
		w = &sc.sm.warps[wi]
	}
	sc.rs.set(slot, w, sc.cfg.BanksPerSubCore)
}

// collectorTick is Collector.Tick with dispatch called directly, bounded by
// the dispatch ports; a stolen unit's operands wait for formal issue, and a
// refused unit stays staged while younger ones bound elsewhere dispatch.
// Granted writebacks clear scoreboards.
func (sc *SubCore) collectorTick(now int64) {
	c, ports := sc.coll, sc.cfg.DispatchPortsPerSubCore
	for m := c.Grant(); m != 0 && ports > 0; {
		i := c.Oldest(m)
		m &^= 1 << uint(i)
		if cu := c.CU(i); !cu.Stolen && sc.dispatch(cu, now) {
			c.Dispatched(i)
			ports--
		}
	}
	c.EndCycle()
	for _, wr := range c.GrantedWrites() {
		w := &sc.sm.warps[wr.WarpIdx]
		w.SBClear(wr.Reg)
		// Only a hazard-blocked warp can change class on a cleared bit.
		if sc.rs.hazard>>uint(w.SchedSlot)&1 != 0 {
			sc.reclass(int(w.SchedSlot))
		}
	}
}

// dispatch sends a collected instruction to its execution unit. Memory
// instructions enter the SM-shared LSU queue instead.
func (sc *SubCore) dispatch(cu *regfile.CollectorUnit, now int64) bool {
	in := &cu.Instr
	class := in.Op.UnitOf()
	if class == isa.ClassMEM {
		if !sc.sm.lsu.enqueue(cu.WarpIdx, *in) {
			return false
		}
		if sc.tr != nil {
			sc.tr.Emit(trace.KDispatch, int8(sc.id), cu.WarpIdx, int32(in.Op), 0)
		}
		return true
	}
	if !sc.eu[class].tryAccept(now) {
		return false
	}
	if in.Dst.Valid() {
		sc.sm.scheduleWriteback(now+int64(in.Op.Latency()), cu.WarpIdx, in.Dst)
	}
	if sc.tr != nil {
		sc.tr.Emit(trace.KDispatch, int8(sc.id), cu.WarpIdx, int32(in.Op), 0)
	}
	return true
}

// issueTick runs the scheduler(s): up to SchedulersPerSubCore instructions
// issue per cycle, each from a distinct warp, falling through to
// lower-priority candidates when the top choice cannot issue (no free
// collector unit, blocked pipe). The scheduler picks straight from the
// ready mask; a picked slot, issued or not, is spent for the cycle.
//
// When every collector unit is taken, ready warps whose head needs one are
// masked out up front and reported as blockedCU instead: tryIssue would
// refuse each of them the same way, collector units never free during the
// issue stage, and the flag is only read when nothing issued — i.e. after
// every candidate was tried.
func (sc *SubCore) issueTick(now int64) {
	m := sc.rs.ready
	if m == 0 {
		sc.issuable, sc.nSpent = 0, 0 // no candidates: stealTick finds no leftovers
		sc.chargeStall(sc.idleReason(1))
		return
	}
	blockedCU := false
	if m&sc.rs.needCU != 0 && sc.coll.FreeCU() < 0 {
		blockedCU = true
		m &^= sc.rs.needCU
	}
	sc.issuable, sc.nSpent = m, 0
	if q := sc.qlenBuf; m&(m-1) != 0 && sc.cfg.WarpScheduler == config.SchedRBA {
		// Tap the arbiter once: issue allocates into the collector as it goes.
		for b := range q[:len(q)-1] {
			q[b] = sc.coll.DelayedQueueLen(b, sc.cfg.RBAScoreLatency)
		}
	}
	issued := 0
	blockedEU := false
	blockedMem := false
	for port := 0; port < sc.cfg.SchedulersPerSubCore; port++ {
		for m != 0 {
			slot := sc.sched.PickReady(m, sc.order, &sc.rs.banks, sc.qlenBuf)
			m &^= 1 << uint(slot)
			sc.spent[sc.nSpent] = uint8(slot)
			sc.nSpent++
			// Captured before tryIssue: an EXIT can retire the block and
			// clear the slot before the event is emitted.
			wIdx := sc.slots[slot]
			w := &sc.sm.warps[wIdx]
			op := w.Cursor.Head().Op
			ok, cu, euBusy, memBusy := sc.tryIssue(w, now)
			if ok {
				sc.sched.NotifyIssued(slot)
				sc.st.Issued++
				sc.sm.run.Instructions++
				issued++
				if sc.tr != nil {
					sc.tr.Emit(trace.KIssue, int8(sc.id), wIdx, int32(op), int32(slot))
				}
				break
			}
			blockedCU = blockedCU || cu
			blockedEU = blockedEU || euBusy
			blockedMem = blockedMem || memBusy
		}
	}
	if issued > 0 {
		sc.st.IssueCycles++
		return
	}
	// Attribute the stall (Fig. 1's effect decomposition). Exactly one
	// StallCycles bucket is charged per non-issue cycle — with the
	// refined sub-counters below, this is what makes the CPI stack
	// (stats.SubCore.CPI) sum bit-exactly to total cycles.
	var reason stats.StallReason
	switch {
	case blockedCU:
		reason = stats.StallNoCU
		// Split CU exhaustion by its upstream cause: backlogged bank
		// queues mean the CUs are hostage to bank conflicts; a collected
		// memory instruction stuck in a CU means LSU backpressure; quiet
		// banks and no stuck memory op is plain structural shortage.
		switch {
		case sc.coll.Backlogged():
			sc.st.ConflictNoCU++
		case sc.coll.BlockedOnMem():
			sc.st.MemNoCU++
		}
	case blockedEU || blockedMem:
		reason = stats.StallEUBusy
		if blockedMem {
			sc.st.MemEUBusy++
		}
	default:
		reason = sc.idleReason(1)
	}
	sc.chargeStall(reason)
}

// chargeStall books one non-issue cycle to its stall bucket.
func (sc *SubCore) chargeStall(reason stats.StallReason) {
	sc.st.StallCycles[reason]++
	if sc.tr != nil {
		sc.tr.Emit(trace.KStall, int8(sc.id), -1, int32(reason), 0)
	}
}

// idleReason attributes n cycles in which no warp was a candidate and
// books the idle sub-counters that refine StallNoWarp; the caller charges
// the returned bucket. One body serves the ticked path and fast-forward,
// so the two cannot drift.
func (sc *SubCore) idleReason(n int64) stats.StallReason {
	rs := &sc.rs
	switch {
	case rs.hazard != 0:
		return stats.StallScoreboard
	case rs.atBarrier != 0 && rs.active == 0:
		return stats.StallBarrier
	}
	if sc.sm.residentWarps == 0 {
		sc.st.SMIdleCycles += n
	}
	if rs.finished != 0 && rs.active|rs.atBarrier == 0 {
		sc.st.IdleAllFinished += n
	}
	return stats.StallNoWarp
}

// quiescent reports whether ticking this sub-core would mutate nothing
// except stall accounting: no warp could issue or decode, and the
// collector has no event (no queued reads/writes, no dispatchable unit).
// With no candidates the scheduler's Pick is never consulted, so scheduler
// state is untouched too — the property that makes slept cycles
// byte-identical for GTO, LRR, and RBA alike.
func (sc *SubCore) quiescent(now int64) bool {
	return sc.rs.ready == 0 && sc.rs.decode == 0 && sc.coll.NextEvent(now) > now
}

// fastForward charges the quiescent cycles [the collector's clock, now) this
// sub-core was not ticked with what SM.Tick would have: the no-candidate
// stall attribution, the active-cycle count, and the collector's clock and
// queue-length ring. A ready warp here means the NextEvent or wake contract
// was violated, which is a simulator bug worth dying loudly for (the
// differential test would otherwise just report drift).
func (sc *SubCore) fastForward(now int64) {
	n := now - sc.coll.Cycle()
	if n <= 0 {
		return
	}
	if sc.rs.ready != 0 {
		panic("smcore: fast-forward over a sub-core with issuable candidates")
	}
	reason := sc.idleReason(n)
	sc.st.StallCycles[reason] += n
	if sc.sm.residentWarps > 0 {
		sc.st.Cycles += n
	}
	sc.coll.FastForward(n)
	if sc.tr != nil && sc.sm.sleeps(sc.id) {
		sc.tr.Emit(trace.KFastForward, int8(sc.id), -1, int32(n), int32(reason))
	}
}

// wake brings the sub-core's clock to now and sets its awake bit.
func (sc *SubCore) wake(now int64) {
	sc.fastForward(now)
	sc.sm.awake |= 1 << uint(sc.id)
}

// rest writes the sub-core's awake bit: clear, asleep, when it is quiescent
// — never under NoFastForward — and set otherwise.
func (sc *SubCore) rest(now int64) {
	if bit := uint64(1) << uint(sc.id); sc.cfg.NoFastForward || !sc.quiescent(now) {
		sc.sm.awake |= bit
	} else {
		sc.sm.awake &^= bit
	}
}

// tryIssue attempts to issue warp w's head instruction. Returns ok, plus which
// resource blocked the failure: a missing collector unit, a busy
// compute execution port, or a full LSU queue (the memory path — kept
// distinct so the CPI stack can attribute the cycle to memory).
func (sc *SubCore) tryIssue(w *Warp, now int64) (ok, noCU, euBusy, memBusy bool) {
	in := w.Cursor.Head()
	switch {
	case in.Op.IsExit():
		sc.consume(w)
		sc.sm.warpExited(w, now)
		return true, false, false, false
	case in.Op.IsBarrier():
		sc.consume(w)
		sc.sm.warpAtBarrier(w, now)
		return true, false, false, false
	case in.Op == isa.OpNOP:
		sc.consume(w)
		return true, false, false, false
	}
	if !in.HasSrc() {
		// Zero-source, register-writing instructions (LDC) bypass the
		// operand collector and dispatch directly.
		return sc.issueDirect(w, in, now)
	}
	// A bank-stealing pre-allocation for this very instruction converts
	// to a normal issue: operands are already (being) read.
	if w.StolenCU >= 0 {
		sc.coll.Unsteal(int(w.StolenCU))
		w.StolenCU = -1
	} else if cuIdx := sc.coll.FreeCU(); cuIdx >= 0 {
		sc.coll.Allocate(cuIdx, sc.slotIndex(w), int32(w.SchedSlot), *in, int(w.BankOff), false)
	} else {
		return false, true, false, false
	}
	if in.Dst.Valid() {
		w.SBSet(in.Dst)
	}
	sc.consume(w)
	return true, false, false, false
}

// issueDirect handles zero-source ops that still execute (LDC and
// degenerate ALU ops): they skip the collector but need their unit.
func (sc *SubCore) issueDirect(w *Warp, in *isa.Instr, now int64) (ok, noCU, euBusy, memBusy bool) {
	class := in.Op.UnitOf()
	if class == isa.ClassMEM {
		if !sc.sm.lsu.enqueue(sc.slotIndex(w), *in) {
			return false, false, false, true
		}
	} else if class != isa.ClassNone {
		if !sc.eu[class].tryAccept(now) {
			return false, false, true, false
		}
		if in.Dst.Valid() {
			sc.sm.scheduleWriteback(now+int64(in.Op.Latency()), sc.slotIndex(w), in.Dst)
		}
	}
	if in.Dst.Valid() {
		w.SBSet(in.Dst)
	}
	sc.consume(w)
	return true, false, false, false
}

// slotIndex returns the warp's index in the SM warp table.
func (sc *SubCore) slotIndex(w *Warp) int32 { return sc.slots[w.SchedSlot] }

// consume steps the cursor past the head and refills the buffer now, the warp
// being spent for the cycle — unless EXIT or BAR parks it with the rest.
func (sc *SubCore) consume(w *Warp) {
	in, _ := w.Cursor.Next()
	w.IBufN--
	if !in.Op.IsExit() && !in.Op.IsBarrier() {
		fill(w)
	}
	sc.reclass(int(w.SchedSlot))
}

// fill decodes until the buffer is full or holds the rest of the program
// (ideal front-end: the paper's effects are all in the back-end).
func fill(w *Warp) { w.IBufN = int8(min(2, w.Cursor.Left())) }

// leftovers lists, into out, the slots of issuable the scheduler did not
// spend, in the order a candidate list would hold them: ascending slots,
// each spent pick removed by moving the last entry into its place. Which
// leftover steals is this order's first eligible one, and fig10's
// bank-steal column is pinned to it. Returns the count.
func leftovers(issuable uint64, spent []uint8, out *[maxSlots]uint8) int {
	n := 0
	for m := issuable; m != 0; m &= m - 1 {
		out[n] = uint8(bits.TrailingZeros64(m))
		n++
	}
	for _, s := range spent {
		i := 0
		for out[i] != s {
			i++
		}
		n--
		out[i] = out[n]
	}
	return n
}

// stealTick pre-allocates a free collector unit with the first leftover
// candidate whose instruction reads registers, so its operands are fetched
// using otherwise-idle bank cycles — register bank stealing [36]. Runs
// after issueTick, and is the one consumer of an ordered candidate list:
// it materialises that order (leftovers) from issueTick's record.
func (sc *SubCore) stealTick() {
	cuIdx := sc.coll.FreeCU()
	if cuIdx < 0 {
		return
	}
	var order [maxSlots]uint8
	n := leftovers(sc.issuable, sc.spent[:sc.nSpent], &order)
	for _, slot := range order[:n] {
		w := &sc.sm.warps[sc.slots[slot]]
		if w.StolenCU >= 0 || w.IBufN == 0 {
			continue
		}
		in := w.Cursor.Head()
		if !in.HasSrc() || in.Op.IsExit() || in.Op.IsBarrier() {
			continue
		}
		sc.coll.Allocate(cuIdx, sc.slotIndex(w), int32(w.SchedSlot), *in, int(w.BankOff), true)
		w.StolenCU = int8(cuIdx)
		sc.reclass(int(slot))
		return
	}
}

// decodeTick fills the buffers consume did not: warps placed this cycle or
// released from a barrier, which must not issue before the next cycle.
func (sc *SubCore) decodeTick() {
	for m := sc.rs.decode; m != 0; m &= m - 1 {
		slot := bits.TrailingZeros64(m)
		fill(&sc.sm.warps[sc.slots[slot]])
		sc.reclass(slot)
	}
}

// reset prepares the sub-core for a new kernel.
func (sc *SubCore) reset() {
	sc.sched.Reset()
}
