package smcore

import (
	"fmt"
	"math/bits"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/regfile"
	"repro/internal/stats"
	"repro/internal/trace"
)

// BlockSpec describes one thread block to place on an SM: one program per
// warp plus its resource demands. The gpu package builds these from
// workload kernels.
type BlockSpec struct {
	// KernelBlockID is the block's index within its kernel grid.
	KernelBlockID int
	// Programs holds one instruction stream per warp in the block.
	Programs []*program.Program
	// RegsPerThread is the compiler-assigned register footprint.
	RegsPerThread int
	// SharedMemBytes is the scratchpad reservation.
	SharedMemBytes int
	// FirstWarpGID is the kernel-wide warp index of warp 0 in this block.
	FirstWarpGID int64
}

// Warps returns the block's warp count.
func (b *BlockSpec) Warps() int { return len(b.Programs) }

// block is a resident thread block's bookkeeping on an SM.
type block struct {
	active         bool
	kernelBlockID  int
	warpsExited    int
	barrierWaiting int
	warpIdxs       []int32
	regsPerThread  int
	sharedBytes    int
}

// subRoom is CanAccept's per-sub-core feasibility scratch (free warp
// slots and register bytes), kept on the SM so the cycle loop's placement
// probe never allocates.
type subRoom struct{ slots, regs int }

// wbEvent is a scheduled register writeback (execution or load return).
// Its sub-core and bank are its warp's (SubCore, and BankOff with the
// register): drain reads them from the warp, so no entry can misroute.
type wbEvent struct {
	cycle   int64
	warpIdx int32
	reg     isa.Reg
}

// wbHeap is a min-heap of writeback events ordered by cycle. It is a
// typed binary heap rather than container/heap because it runs on the
// per-cycle path: container/heap's interface{} Push/Pop boxes every wbEvent
// (one allocation per scheduled writeback, which fails
// TestCycleLoopZeroAlloc). push is here; the pop side is SM.drain, which
// sifts inside its routing loop. Sifts move entries through a hole; on a tie
// push stops and drain's sift keeps the left child or stops. The array's
// order decides write-port order among same-cycle writebacks, and a frame
// carries it.
type wbHeap []wbEvent

func (h *wbHeap) push(e wbEvent) {
	q := append(*h, e)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if q[parent].cycle <= e.cycle {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = e
	*h = q
}

// SM is one streaming multiprocessor: sub-cores, the shared LSU, resident
// warps/blocks, and the warp→sub-core assigner. Its own mutable state is the
// warp table and the embedded smState; the rest is wiring and scratch.
type SM struct {
	id       int
	cfg      *config.GPU
	warps    []Warp
	subcores []*SubCore
	assigner core.Assigner
	lsu      *LSU
	hier     *mem.Hierarchy
	st       *stats.SM
	run      *stats.Run

	smState

	// The SM's own clock. synced is the first cycle not yet accounted:
	// Tick and Sync charge [synced, now) in bulk. wake is NextEvent as of
	// synced — the next cycle a Tick could do more than stall accounting;
	// a caller may leave the SM unticked until then. Both are derived (the
	// collectors carry the clock) and rebuilt by RestoreState.
	synced, wake int64
	// awake has bit i set while sub-core i takes part in Tick's stages. A
	// clear bit is a sleeper: quiescent since the tick it rested (SubCore.rest)
	// until a writeback, Allocate or wakeSleepers sets the bit again, its
	// collector's clock showing how long. Derived: RestoreState rebuilds it.
	awake uint64
	// work counts the sub-cores Tick found awake: what the SM has cost the
	// host, in sub-core cycles. Derived; a restored SM starts from zero.
	work int64

	// rooms is CanAccept's reusable feasibility scratch.
	rooms []subRoom
	// auditSB and auditListed are Audit's reusable scratch (expected
	// scoreboards, warps some block lists): the periodic invariant sweep
	// (gpu heartbeat, every monitorPeriod cycles) must not allocate per visit.
	auditSB     [][sbWords]uint64
	auditListed []bool

	// tr is the observability handle for this SM; nil when the SM is not
	// traced, which is the fast path every emission site branches on.
	tr *trace.SMT
}

// smState is the SM-level state a snapshot carries beside the warp table:
// plain data only, walked whole by snapshot.State (snapshot.go).
type smState struct {
	blocks     []block `snap:"fixed"`
	wb         wbHeap
	freeShmem  int
	ageCounter int64
	// residentWarps counts occupied warp slots (all states).
	residentWarps  int
	residentBlocks int
}

// NewSM builds SM id for a validated config, wiring it to the shared
// memory hierarchy and the run's stats.
func NewSM(id int, cfg *config.GPU, hier *mem.Hierarchy, run *stats.Run) *SM {
	sm := &SM{
		id:       id,
		cfg:      cfg,
		warps:    make([]Warp, cfg.MaxWarpsPerSM),
		hier:     hier,
		st:       &run.SMs[id],
		run:      run,
		assigner: core.NewAssigner(cfg.SubCoreAssign, cfg.SubCoresPerSM, cfg.HashTableEntries, cfg.Seed, id),
		smState: smState{
			blocks:    make([]block, cfg.MaxBlocksPerSM),
			freeShmem: cfg.SharedMemKBPerSM * 1024,
		},
	}
	sm.lsu = newLSU(sm, cfg.LSUQueue)
	for i := 0; i < cfg.SubCoresPerSM; i++ {
		sm.subcores = append(sm.subcores, newSubCore(i, cfg, sm, &run.SMs[id].SubCores[i]))
	}
	sm.rooms = make([]subRoom, len(sm.subcores))
	sm.awake = sm.everySubCore()
	sm.wake = mem.NeverCycle // empty: nothing to do until a block arrives
	return sm
}

// SetTracer attaches the observability layer: the SM keeps its emission
// handle (nil when this SM is not traced) and forwards it to the LSU and
// each sub-core's operand collector. Pass nil to detach.
func (sm *SM) SetTracer(t *trace.Tracer) {
	h := t.ForSM(sm.id) // nil-safe: nil tracer or untraced SM yields nil
	sm.tr = h
	sm.lsu.tr = h
	for _, sc := range sm.subcores {
		sc.tr = h
		sc.coll.SetTracer(h, int8(sc.id))
	}
}

// TraceCounters implements trace.CounterSource: a point-in-time snapshot
// of the SM's occupancy, queue depths and cumulative throughput counters
// for the sampled time-series.
func (sm *SM) TraceCounters(s *trace.CounterSample) {
	s.Occupancy = int32(sm.residentWarps)
	s.LSUQueue = int32(sm.lsu.pending())
	banks := sm.cfg.BanksPerSubCore
	for i, sc := range sm.subcores {
		s.IssuedBySub[i] = sc.st.Issued
		s.OccBySub[i] = int32(len(sc.order))
		s.RFReadsTotal += sc.st.RegReads
		for b := 0; b < banks; b++ {
			s.QLenByBank[i*banks+b] = int32(sc.coll.QueueLen(b))
		}
	}
}

// CanAccept reports whether the SM can place the whole block: a block
// slot, shared memory, and — because registers and warp slots are
// partitioned per sub-core — a feasible per-sub-core placement for every
// warp. A block can be refused even when the SM's *total* free register
// space would suffice: per-sub-core fragmentation from earlier blocks
// (e.g. a concurrent kernel with a different register footprint) strands
// capacity. This is the paper's fourth partitioning effect (Section I).
//
// CanAccept runs on the cycle loop's path (while blocks are pending, the
// block scheduler probes every SM in the cycle after a block retires),
// hence the reusable rooms scratch instead of a per-call allocation.
func (sm *SM) CanAccept(b *BlockSpec) bool {
	if sm.residentBlocks >= len(sm.blocks) {
		return false
	}
	if sm.residentWarps+b.Warps() > sm.cfg.MaxWarpsPerSM {
		return false
	}
	if b.SharedMemBytes > sm.freeShmem {
		return false
	}
	// First-fit feasibility over per-sub-core slots and register space.
	perWarp := isa.WarpRegBytes(b.RegsPerThread)
	rooms := sm.rooms
	for i, sc := range sm.subcores {
		rooms[i] = subRoom{slots: len(sc.slots) - len(sc.order), regs: sc.freeRegBytes}
	}
	for w := 0; w < b.Warps(); w++ {
		placed := false
		for i := range rooms {
			if rooms[i].slots > 0 && rooms[i].regs >= perWarp {
				rooms[i].slots--
				rooms[i].regs -= perWarp
				placed = true
				break
			}
		}
		if !placed {
			return false
		}
	}
	return true
}

// Allocate places a block: each warp is pinned to the sub-core chosen by
// the assignment policy (falling back to the least-loaded sub-core with
// space when the designated one is full — counted, since the hash table
// in hardware is constructed so this cannot happen for balanced shapes).
// Call only after CanAccept, and on an SM that may have slept only after
// Sync: the slept cycles are charged against the residency they ran under.
// The SM, and every sub-core of it, is awake from the cycle it is synced to.
// Runs once per placed block, not per cycle.
func (sm *SM) Allocate(b *BlockSpec) error {
	if !sm.CanAccept(b) {
		return fmt.Errorf("smcore: SM %d cannot accept block %d", sm.id, b.KernelBlockID)
	}
	for _, sc := range sm.subcores {
		sc.wake(sm.synced)
	}
	blkSlot := -1
	for i := range sm.blocks {
		if !sm.blocks[i].active {
			blkSlot = i
			break
		}
	}
	blk := &sm.blocks[blkSlot]
	*blk = block{
		active:        true,
		kernelBlockID: b.KernelBlockID,
		warpIdxs:      blk.warpIdxs[:0],
		regsPerThread: b.RegsPerThread,
		sharedBytes:   b.SharedMemBytes,
	}
	sm.freeShmem -= b.SharedMemBytes
	for wi, prog := range b.Programs {
		scID := sm.assigner.Next()
		if !sm.subcores[scID].canHost(b.RegsPerThread) {
			// The designated sub-core is full (slots or registers); fall
			// back to the least-loaded sub-core with space. CanAccept
			// guaranteed a feasible placement exists.
			scID = sm.fallbackSubCore(b.RegsPerThread)
			sm.st.AssignFallbacks++
			if scID < 0 {
				panic("smcore: no sub-core can host a warp after CanAccept")
			}
		}
		warpIdx := sm.freeWarpSlot()
		sc := sm.subcores[scID]
		schedSlot := sc.host(int32(warpIdx), b.RegsPerThread)
		gid := b.FirstWarpGID + int64(wi)
		resetWarp(&sm.warps[warpIdx], gid, int32(blkSlot), int8(scID), schedSlot, sm.ageCounter, prog, sm.bankOffset(schedSlot))
		sc.reclass(int(schedSlot))
		sm.ageCounter++
		blk.warpIdxs = append(blk.warpIdxs, int32(warpIdx))
		sm.residentWarps++
	}
	sm.residentBlocks++
	sm.wake = sm.synced
	if sm.tr != nil {
		sm.tr.Emit(trace.KBlockPlace, -1, -1, int32(b.KernelBlockID), int32(b.Warps()))
	}
	return nil
}

func (sm *SM) freeWarpSlot() int {
	for i := range sm.warps {
		if sm.warps[i].State == WarpEmpty {
			return i
		}
	}
	panic("smcore: no free warp slot after CanAccept")
}

// bankOffset is Warp.BankOff of scheduler slot slot, at placement and restore.
func (sm *SM) bankOffset(slot int16) int16 {
	return int16(regfile.SlotOffset(int(slot), sm.cfg.BankSwizzle))
}

func (sm *SM) fallbackSubCore(regsPerThread int) int {
	best, bestLoad := -1, 1<<30
	for i, sc := range sm.subcores {
		if sc.canHost(regsPerThread) && len(sc.order) < bestLoad {
			best, bestLoad = i, len(sc.order)
		}
	}
	return best
}

// scheduleWriteback books a register write at the given cycle; the write
// then contends for its bank's port before clearing the scoreboard.
func (sm *SM) scheduleWriteback(cycle int64, warpIdx int32, reg isa.Reg) {
	sm.wb.push(wbEvent{cycle: cycle, warpIdx: warpIdx, reg: reg})
}

// warpExited handles an EXIT issue: the warp stops fetching but keeps its
// slot and registers until the whole block retires.
func (sm *SM) warpExited(w *Warp, now int64) {
	sm.setState(w, WarpFinished)
	blk := &sm.blocks[w.BlockSlot]
	blk.warpsExited++
	sm.checkBarrierRelease(blk, w, now)
	if blk.warpsExited == len(blk.warpIdxs) {
		sm.wakeSleepers(w, now)
		sm.retireBlock(blk)
	}
}

// warpAtBarrier handles a BAR issue.
func (sm *SM) warpAtBarrier(w *Warp, now int64) {
	sm.setState(w, WarpAtBarrier)
	blk := &sm.blocks[w.BlockSlot]
	blk.barrierWaiting++
	sm.checkBarrierRelease(blk, w, now)
}

// checkBarrierRelease opens the barrier once every non-exited warp of the
// block has arrived (exited warps no longer participate); w just did.
func (sm *SM) checkBarrierRelease(blk *block, w *Warp, now int64) {
	alive := len(blk.warpIdxs) - blk.warpsExited
	if blk.barrierWaiting == 0 || blk.barrierWaiting < alive {
		return
	}
	sm.wakeSleepers(w, now)
	blk.barrierWaiting = 0
	for _, wi := range blk.warpIdxs {
		if w := &sm.warps[wi]; w.State == WarpAtBarrier {
			sm.setState(w, WarpActive)
		}
	}
}

// wakeSleepers wakes every sleeping sub-core mid-cycle, before warp w's issue
// at cycle now reaches into other sub-cores (barrier release and block
// retirement reclass their slots and change residentWarps). A sleeper is
// charged, under the state it slept in, its span, this cycle's collector
// stage and — if its turn to issue is already past — this cycle's stall.
func (sm *SM) wakeSleepers(w *Warp, now int64) {
	for m := sm.everySubCore() &^ sm.awake; m != 0; m &= m - 1 {
		sc := sm.subcores[bits.TrailingZeros64(m)]
		sc.wake(now)
		sc.coll.FastForward(1)
		if sc.id < int(w.SubCore) {
			sc.chargeStall(sc.idleReason(1))
		}
	}
}

// setState moves a resident warp to a new lifecycle state and reclassifies
// its slot in the owning sub-core's ready set — which may not be the
// sub-core whose issue caused the transition.
func (sm *SM) setState(w *Warp, st WarpState) {
	w.State = st
	sm.subcores[w.SubCore].reclass(int(w.SchedSlot))
}

// retireBlock frees every resource the block held — the all-at-once
// deallocation that makes sub-core imbalance expensive. The freed block
// slot is zeroed, not just marked: a free slot holding its last occupant's
// residue would make equal machine states snapshot differently. (Free warp
// slots may keep theirs: a snapshot carries occupied warps only.)
func (sm *SM) retireBlock(blk *block) {
	for _, wi := range blk.warpIdxs {
		w := &sm.warps[wi]
		sm.subcores[w.SubCore].release(w.SchedSlot, blk.regsPerThread)
		w.State = WarpEmpty
		sm.residentWarps--
	}
	sm.freeShmem += blk.sharedBytes
	sm.residentBlocks--
	sm.st.BlocksCompleted++
	if sm.tr != nil {
		sm.tr.Emit(trace.KBlockRetire, -1, -1, int32(blk.kernelBlockID), 0)
	}
	*blk = block{warpIdxs: blk.warpIdxs[:0]} // the slot's next block reuses the list's room
}

// Tick runs cycle now, first charging any cycles [synced, now) the caller
// left unticked. A caller that ticks every cycle and one that ticks only at
// Wake leave identical state. Stages run back-to-front so results produced
// this cycle are visible no earlier than the next. Stages 3-5 walk the awake
// mask, so a sleeping sub-core is not visited at all until a writeback,
// Allocate or wakeSleepers sets its bit; stages 1 and 2 are called only when
// they have something due.
func (sm *SM) Tick(now int64) {
	if now > sm.synced {
		sm.sync(now, false)
	}
	// 1. Writeback events whose time has come enter the bank write ports.
	if len(sm.wb) > 0 && sm.wb[0].cycle <= now {
		sm.drain(now)
	}
	// 2. The shared LSU admits its oldest instruction onto a free port.
	if l := sm.lsu; len(l.queue) > 0 && l.portFree <= now {
		l.serve(now)
	}
	// 3. Operand collection, dispatch, and write-port grants.
	for m := sm.awake; m != 0; m &= m - 1 {
		sm.subcores[bits.TrailingZeros64(m)].collectorTick(now)
	}
	// 4. Issue. An issue can wake sleepers mid-cycle (wakeSleepers), so the
	// mask is re-read past each sub-core: one woken later in the order
	// issues this cycle.
	for m := sm.awake; m != 0; {
		i := bits.TrailingZeros64(m)
		sc := sm.subcores[i]
		sc.issueTick(now)
		if sm.cfg.BankStealing {
			sc.stealTick()
		}
		m = sm.awake &^ (2<<uint(i) - 1)
	}
	// 5. Decode/fetch, the active-cycle count, and sleep for the quiescent.
	for m := sm.awake; m != 0; m &= m - 1 {
		sc := sm.subcores[bits.TrailingZeros64(m)]
		sm.work++
		sc.decodeTick()
		if sm.residentWarps > 0 {
			sc.st.Cycles++
		}
		sc.rest(now)
	}
	sm.synced = now + 1
	sm.wake = sm.NextEvent(sm.synced)
}

// drain pops every writeback due by now off the heap, in heap order, into
// its bank's write port, waking a sleeping sub-core first. Tick calls it
// only when the root is due. The pop's hole sift is written out in the
// routing loop and the heap header stored once: a pop call per event, whose
// result and header round-trip through memory, cost about 9 % of
// issue_dense's host time.
func (sm *SM) drain(now int64) {
	q := sm.wb
	for {
		e := q[0]
		n := len(q) - 1
		last := q[n]
		q = q[:n]
		for i := 0; n > 0; {
			c := 2*i + 1
			if r := c + 1; r < n && q[r].cycle < q[c].cycle {
				c = r
			}
			if c >= n || q[c].cycle >= last.cycle {
				q[i] = last
				break
			}
			q[i] = q[c]
			i = c
		}
		w := &sm.warps[e.warpIdx]
		sc := sm.subcores[w.SubCore]
		if sm.sleeps(int(w.SubCore)) {
			sc.wake(now)
		}
		bank := int8(regfile.BankWithOffset(int(w.BankOff), e.reg, sm.cfg.BanksPerSubCore))
		sc.coll.EnqueueWrite(regfile.WriteReq{WarpIdx: e.warpIdx, Reg: e.reg, Bank: bank})
		if sm.tr != nil {
			sm.tr.Emit(trace.KWriteback, w.SubCore, e.warpIdx, int32(e.reg), int32(bank))
		}
		if len(q) == 0 || q[0].cycle > now {
			break
		}
	}
	sm.wb = q
}

// Sync charges the unticked cycles up to now in bulk — the SM's [synced,
// now), a sleeping sub-core's longer span — with the exact counters that
// many Ticks would have accumulated, given the caller ticked at every Wake.
// Stall attribution per sub-core replays issueTick's no-candidate decision;
// active-cycle counts, collector clocks and RBA queue-length rings advance
// bit-exactly. Everything that reads those counters or encodes the SM calls
// it first. Emits one KFastForward event covering the SM's span when the SM
// is traced.
func (sm *SM) Sync(now int64) { sm.sync(now, true) }

// sync is Sync; Tick's (sleepers false) leaves sleeping sub-cores behind.
func (sm *SM) sync(now int64, sleepers bool) {
	m := sm.awake
	if sleepers {
		m = sm.everySubCore()
	}
	for ; m != 0; m &= m - 1 {
		sm.subcores[bits.TrailingZeros64(m)].fastForward(now)
	}
	if n := now - sm.synced; n > 0 {
		sm.synced = now
		if sm.tr != nil {
			sm.tr.Emit(trace.KFastForward, -1, -1, int32(n), 0)
		}
	}
}

// Wake returns the next cycle the SM needs a Tick: NextEvent as of the
// last Tick, or the synced cycle after an Allocate. mem.NeverCycle means
// nothing inside the SM will ever wake it.
func (sm *SM) Wake() int64 { return sm.wake }

// Synced returns the first cycle the SM has not yet accounted.
func (sm *SM) Synced() int64 { return sm.synced }

// Work returns how many sub-core cycles the SM has run awake.
func (sm *SM) Work() int64 { return sm.work }

// NextEvent returns the earliest cycle at or after now at which ticking
// this SM could mutate state (beyond pure per-cycle stall accounting):
// now itself when any stage has work this cycle — an issuable or
// decodable warp, a collector with queued requests or a dispatchable
// unit, an LSU with an admissible entry — or the earliest time-gated
// event otherwise: the next writeback in the heap, or the LSU coalescer
// port freeing over a non-empty queue. mem.NeverCycle means the SM has
// no intrinsic future event (empty, or wedged until a barrier that will
// never release — the device deadline still bounds that).
//
// The contract (docs/ARCHITECTURE.md, "Performance"): if NextEvent(now)
// returns t > now, then Tick(c) for every c in [now, t) would change
// nothing except the stall/idle counters that Sync replays in bulk. The
// device loop's per-SM sleep leans on this for byte-identical statistics;
// TestFastForwardInert and TestFastForwardByteIdentity enforce it end to
// end, TestNextEventContractEveryCycle cycle by cycle.
func (sm *SM) NextEvent(now int64) int64 {
	next := mem.NeverCycle
	if len(sm.wb) > 0 {
		if sm.wb[0].cycle <= now {
			return now
		}
		next = sm.wb[0].cycle // heap root is the earliest writeback
	}
	if sm.lsu.pending() > 0 {
		if sm.lsu.portFree <= now {
			return now
		}
		if sm.lsu.portFree < next {
			next = sm.lsu.portFree
		}
	}
	for m := sm.awake; m != 0; m &= m - 1 {
		if !sm.subcores[bits.TrailingZeros64(m)].quiescent(now) {
			return now
		}
	}
	return next
}

// everySubCore is the awake mask with no sub-core asleep.
func (sm *SM) everySubCore() uint64 { return ^uint64(0) >> (64 - len(sm.subcores)) }

// sleeps reports whether sub-core i is asleep: its awake bit clear.
func (sm *SM) sleeps(i int) bool { return sm.awake>>uint(i)&1 == 0 }

// Drained reports whether the SM holds no work: no resident warps, no
// pending writebacks, no queued memory instructions, and empty collectors.
func (sm *SM) Drained() bool {
	if sm.residentWarps > 0 || len(sm.wb) > 0 || sm.lsu.pending() > 0 {
		return false
	}
	for _, sc := range sm.subcores {
		if !sc.coll.Drained() {
			return false
		}
	}
	return true
}

// ResidentWarps returns the number of occupied warp slots.
func (sm *SM) ResidentWarps() int { return sm.residentWarps }

// ResetForKernel clears scheduler history and the assigner between
// kernels of the same application (resources must already be drained).
func (sm *SM) ResetForKernel() {
	sm.assigner.Reset()
	for _, sc := range sm.subcores {
		sc.reset()
	}
}
