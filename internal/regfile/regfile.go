// Package regfile models the banked register file, its arbitration unit,
// and the operand collector of one GPU sub-core (Fig. 2 and Fig. 6 of the
// paper).
//
// Each sub-core owns a small number of banks (2 on Volta/Ampere) and
// collector units (2 on Volta). A warp instruction issued by the scheduler
// is staged in a collector unit; one read request per source operand is
// queued at the operand's bank; each bank has one read port and one write
// port (1R+1W), so in one cycle the arbiter grants a bank one read and
// drains one writeback into it (Collector.Grant); when all operands are
// collected the instruction dispatches to its execution unit and the
// collector unit frees. A single port per bank with writebacks first, as
// GPGPU-Sim arbitrates, is hypothesis H2 of ROADMAP item 1, not the model.
//
// The arbiter exposes its per-bank queue lengths — optionally through a
// delay line — which is the single piece of information the paper's RBA
// scheduler adds to the baseline design. A cycle is Grant, Oldest,
// Dispatched and EndCycle, which the sub-core drives; Tick, their composition
// around a dispatch callback, is the form the benchmark pins (ROADMAP item 7
// may retire it).
package regfile

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/trace"
)

// warpSwizzle scrambles a warp slot into a per-warp bank offset for the
// optional swizzled mapping (see SlotOffset). The scramble keeps the low bit
// (so 2-bank sub-cores stay balanced across slots) and permutes the next
// three bits.
var warpSwizzle = [8]int{0, 5, 3, 6, 1, 4, 7, 2}

// SlotOffset returns a warp slot's bank offset under the chosen mapping;
// precompute it once per warp and map its registers with BankWithOffset:
// bank = (reg + offset) mod banks (DESIGN.md states the whole formula).
//
// The swizzled mapping is what every preset runs (config.VoltaV100 sets
// BankSwizzle): a scrambled per-slot offset, modeling a hardware remapping
// that decorrelates co-resident warps. The offset keeps the slot's low
// bit, so at 2 banks it is (reg + slot) mod 2; at 4 or more it scrambles.
//
// The plain mapping (swizzle = false, offset 0; the abl-swizzle
// ablation) is the one microbenchmarked out of Volta silicon [Jia et al.]:
// bank = register index mod banks, identical for every warp. Under it,
// co-resident warps running the same code press the same banks, so
// whole-program register-usage asymmetries turn into persistent
// bank-queue imbalance — the pressure RBA schedules around, and the
// reason slightly stale RBA scores remain useful (Section VI-B4).
func SlotOffset(warpSlot int, swizzle bool) int {
	if !swizzle {
		return 0
	}
	return warpSwizzle[(warpSlot>>1)&7]<<1 | (warpSlot & 1)
}

// BankWithOffset maps a register to a bank given a precomputed slot
// offset.
func BankWithOffset(off int, reg isa.Reg, banks int) int {
	if banks <= 1 {
		return 0
	}
	if banks&(banks-1) == 0 {
		return (int(reg) + off) & (banks - 1) // every shipped shape: no divide
	}
	return (int(reg) + off) % banks
}

// readReq is a pending source-operand read queued at a bank.
type readReq struct {
	cu     int8
	stolen bool
}

// WriteReq is a pending destination-register writeback. The sub-core
// enqueues one per completed instruction and learns of the grant via
// GrantedWrites, at which point the scoreboard entry clears.
type WriteReq struct {
	// WarpIdx identifies the warp within the SM (opaque to this package).
	WarpIdx int32
	// Reg is the destination register being written.
	Reg isa.Reg
	// Bank is the destination bank, precomputed by the caller.
	Bank int8
}

// CollectorUnit stages one warp instruction while its operands are read.
type CollectorUnit struct {
	// Valid marks the CU occupied.
	Valid bool
	// WarpIdx identifies the issuing warp within the SM.
	WarpIdx int32
	// SchedSlot is the warp's slot in its scheduler, used for stats.
	SchedSlot int32
	// Instr is the staged instruction.
	Instr isa.Instr
	// Pending counts source operands not yet granted.
	Pending int8
	// Stolen marks a bank-stealing pre-allocation: its reads only use
	// otherwise-idle bank cycles and it never blocks normal traffic.
	Stolen bool
	// AllocCycle records when the CU was filled: dispatch order.
	AllocCycle int64
}

// Ready reports whether all operands are collected and the instruction
// can dispatch.
func (c *CollectorUnit) Ready() bool { return c.Valid && c.Pending == 0 }

// Collector is the operand collector + arbitration unit of one sub-core.
// Its mutable state is the embedded collectorState; the fields declared
// here are shape, wiring and scratch.
type Collector struct {
	collectorState
	banks int

	derived

	// granted writes this cycle, exposed to the sub-core and consumed by it
	// within the same cycle: empty between cycles.
	grantedW []WriteReq

	st *stats.SubCore

	// Audit's reusable scratch, per-CU reference counts and the recounted
	// summary: the periodic invariant sweep must not allocate per visit.
	auditRefs []int
	auditWant derived

	// tr emits bank-grant trace events when the SM is traced (nil
	// otherwise — the disabled fast path); trSub is the owning sub-core.
	tr    *trace.SMT
	trSub int8
}

// derived answers, in O(1), what the issue stage and Tick ask every cycle.
// It is a function of collectorState (derive): maintained at every
// mutation, rebuilt on restore, and re-derived by Audit.
type derived struct {
	// busy counts what makes a Tick do work: queued reads, queued
	// writebacks and staged non-stolen units.
	busy int
	// free has bit i set while collector unit i is unoccupied.
	free uint64
	// normal[b] counts the normal (non-stolen) reads queued at bank b: the
	// arbiter's queue length, RBA's score input.
	normal []int
	// ready has bit i set while unit i is Ready: Tick's dispatch candidates.
	ready uint64
}

// collectorState is everything about a collector that changes as it runs
// and must survive a snapshot: plain data only, carried whole by
// snapshot.State (snapshot.go). The fixed tags are the shape NewCollector
// built: CU count, banks, score-delay ring.
type collectorState struct {
	cus []CollectorUnit `snap:"fixed"`
	// queues[b] holds read requests waiting on bank b, FIFO.
	queues [][]readReq `snap:"fixed"`
	// writes[b] holds writeback requests for bank b, FIFO, priority.
	writes [][]WriteReq `snap:"fixed"`
	// qlenHist is a ring of per-bank normal-read queue lengths, one entry
	// per cycle of tap delay (none without a delayed tap), supporting the
	// RBA score-update delay study (VI-B4).
	qlenHist [][]int16 `snap:"fixed,fixed"`
	histPos  int
	cycle    int64
}

// NewCollector builds a collector with numCUs units (at most 64: the free
// set is one mask) over numBanks banks. scoreDelay is the maximum
// queue-length tap delay that will be requested: the history ring holds that
// many cycles, so zero means no ring and nothing to keep per cycle.
func NewCollector(numCUs, numBanks, scoreDelay int, st *stats.SubCore) *Collector {
	if numCUs < 1 || numCUs > 64 || numBanks < 1 || scoreDelay < 0 {
		panic(fmt.Sprintf("regfile: invalid collector shape %d CUs, %d banks, score delay %d", numCUs, numBanks, scoreDelay))
	}
	c := &Collector{
		collectorState: collectorState{
			cus:    make([]CollectorUnit, numCUs),
			queues: make([][]readReq, numBanks),
			writes: make([][]WriteReq, numBanks),
		},
		banks:     numBanks,
		derived:   derived{free: 1<<uint(numCUs) - 1, normal: make([]int, numBanks)},
		auditWant: derived{normal: make([]int, numBanks)},
		st:        st,
	}
	c.qlenHist = make([][]int16, scoreDelay)
	for i := range c.qlenHist {
		c.qlenHist[i] = make([]int16, numBanks)
	}
	return c
}

// SetTracer attaches (or with nil detaches) the observability handle of
// the SM owning this collector; sub identifies the sub-core in events.
func (c *Collector) SetTracer(h *trace.SMT, sub int8) {
	c.tr = h
	c.trSub = sub
}

// NumCUs returns the collector-unit count.
func (c *Collector) NumCUs() int { return len(c.cus) }

// Cycle returns the collector's clock: the number of cycles it has been
// ticked or fast-forwarded through.
func (c *Collector) Cycle() int64 { return c.cycle }

// CU returns the i-th collector unit for inspection.
func (c *Collector) CU(i int) *CollectorUnit { return &c.cus[i] }

// FreeCU returns the index of the lowest free collector unit, or -1.
func (c *Collector) FreeCU() int {
	if c.free == 0 {
		return -1
	}
	return bits.TrailingZeros64(c.free)
}

// Allocate fills collector unit cu with an instruction from warpIdx whose
// registers map to banks with the warp's precomputed bank offset (see
// SlotOffset). One read request per valid source operand is queued at its
// bank. Allocate panics if the CU is occupied — the issue stage must
// check FreeCU first.
func (c *Collector) Allocate(cu int, warpIdx, schedSlot int32, in isa.Instr, bankOff int, stolen bool) {
	u := &c.cus[cu]
	if u.Valid {
		panic("regfile: allocating an occupied collector unit")
	}
	*u = CollectorUnit{
		Valid:      true,
		WarpIdx:    warpIdx,
		SchedSlot:  schedSlot,
		Instr:      in,
		Stolen:     stolen,
		AllocCycle: c.cycle,
	}
	c.free &^= 1 << uint(cu)
	if !stolen {
		c.busy++
	}
	for _, s := range in.Srcs {
		if !s.Valid() {
			continue
		}
		b := BankWithOffset(bankOff, s, c.banks)
		u.Pending++
		c.busy++
		if !stolen {
			c.normal[b]++
		}
		c.queues[b] = append(c.queues[b], readReq{cu: int8(cu), stolen: stolen})
	}
	if u.Pending == 0 {
		c.ready |= 1 << uint(cu)
	}
}

// Unsteal converts collector unit cu's bank-stealing pre-allocation into a
// normal issue: the operands are already (being) read — reads of it still
// queued stay stolen, idle-cycle traffic the arbiter tap does not count —
// and from now on the unit dispatches like any other.
func (c *Collector) Unsteal(cu int) {
	c.cus[cu].Stolen = false
	c.busy++
}

// EnqueueWrite queues a writeback. Writebacks have priority over reads at
// their bank; the caller clears the scoreboard entry when the write shows
// up in GrantedWrites. A bank outside [0, banks) panics on the index.
func (c *Collector) EnqueueWrite(w WriteReq) {
	c.writes[w.Bank] = append(c.writes[w.Bank], w)
	c.busy++
}

// GrantedWrites returns the writebacks granted by the last Tick. The
// slice is reused; callers must consume it before the next Tick.
func (c *Collector) GrantedWrites() []WriteReq { return c.grantedW }

// QueueLen returns the current number of *normal* (non-stolen) read
// requests waiting at bank b — the quantity summed into RBA scores.
func (c *Collector) QueueLen(b int) int { return c.normal[b] }

// Backlogged reports whether any bank has a queued normal (non-stolen)
// read — the signature the issue stage uses to attribute a
// no-free-collector-unit stall to bank conflicts rather than plain CU
// exhaustion (the CPI stack's bank-conflict component).
func (c *Collector) Backlogged() bool {
	for _, n := range c.normal {
		if n > 0 {
			return true
		}
	}
	return false
}

// BlockedOnMem reports whether a fully collected, non-stolen collector
// unit is staged with a memory-class instruction — its operands are
// read but the LSU would not accept it, so CU exhaustion with quiet
// banks is memory backpressure (the CPI stack's memory component).
func (c *Collector) BlockedOnMem() bool {
	for m := c.ready; m != 0; m &= m - 1 {
		if u := &c.cus[bits.TrailingZeros64(m)]; !u.Stolen && u.Instr.Op.UnitOf() == isa.ClassMEM {
			return true
		}
	}
	return false
}

// DelayedQueueLen returns the bank-b queue length as observed delay
// cycles ago (0 = current). Delays beyond the ring's capacity saturate to
// the oldest recorded value; with no ring every delay reads the live length.
func (c *Collector) DelayedQueueLen(b, delay int) int {
	delay = min(delay, len(c.qlenHist))
	if delay <= 0 {
		return c.QueueLen(b)
	}
	// The snapshot at histPos was recorded during the current cycle's
	// Tick (before the issue stage reads it), so delay d maps to ring
	// offset d-1.
	idx := c.histPos - (delay - 1)
	if idx < 0 {
		idx += len(c.qlenHist)
	}
	return int(c.qlenHist[idx][b])
}

// Tick runs one cycle: Grant, each collected unit oldest first through the
// dispatch callback (true = accepted, then Dispatched), and EndCycle. The
// benchmark's collector driver pins it; ROADMAP item 7 may retire it.
func (c *Collector) Tick(dispatch func(*CollectorUnit) bool) {
	for m := c.Grant(); m != 0; {
		i := c.Oldest(m)
		m &^= 1 << uint(i)
		if dispatch(&c.cus[i]) {
			c.Dispatched(i)
		}
	}
	c.EndCycle()
}

// Grant runs the bank ports (1R+1W, as on Volta) — each drains one writeback
// and grants one read, the oldest normal read first, stolen reads only onto
// an idle port; a request left waiting is a bank conflict — and returns the
// collected units. With busy == 0 it returns none at once.
func (c *Collector) Grant() uint64 {
	c.grantedW = c.grantedW[:0]
	if c.busy == 0 {
		return 0
	}
	for b := 0; b < c.banks; b++ {
		// Write port.
		if len(c.writes[b]) > 0 {
			w := c.writes[b][0]
			c.grantedW = append(c.grantedW, w)
			c.writes[b] = popAt(c.writes[b], 0)
			c.busy--
			if c.st != nil {
				c.st.RegWrites++
				c.st.BankConflicts += int64(len(c.writes[b]))
			}
			if c.tr != nil {
				c.tr.Emit(trace.KBankWrite, c.trSub, w.WarpIdx, int32(b), 0)
			}
		}
		// Read port: oldest normal read first; with only stolen requests
		// present the port is idle, and the oldest of them steals it.
		if q := c.queues[b]; len(q) > 0 {
			gi := 0
			if c.normal[b] > 0 {
				for q[gi].stolen {
					gi++
				}
				c.normal[b]--
			}
			r := q[gi]
			c.queues[b] = popAt(q, gi)
			c.busy--
			u := &c.cus[r.cu]
			u.Pending--
			if u.Pending < 0 {
				panic("regfile: operand granted for an empty collector unit")
			}
			if u.Pending == 0 {
				c.ready |= 1 << uint(r.cu)
			}
			if c.st != nil {
				c.st.RegReads++
				c.st.BankConflicts += int64(c.normal[b])
			}
			if c.tr != nil {
				c.tr.Emit(trace.KBankRead, c.trSub, u.WarpIdx, int32(b), int32(r.cu))
			}
		}
	}
	return c.ready
}

// Oldest returns the unit of the non-empty mask m allocated first, the
// lowest on a tie: the baseline design's dispatch priority.
func (c *Collector) Oldest(m uint64) int {
	best := bits.TrailingZeros64(m)
	for m &= m - 1; m != 0; m &= m - 1 {
		if i := bits.TrailingZeros64(m); c.cus[i].AllocCycle < c.cus[best].AllocCycle {
			best = i
		}
	}
	return best
}

// Dispatched frees unit i, whose instruction its execution unit accepted.
func (c *Collector) Dispatched(i int) {
	c.cus[i].Valid = false
	c.free |= 1 << uint(i)
	c.ready &^= 1 << uint(i)
	if !c.cus[i].Stolen {
		c.busy--
	}
}

// EndCycle closes the cycle: the clock moves on, and a delayed tap records
// the queue lengths.
func (c *Collector) EndCycle() { c.advance(1) }

// advance moves the clock n cycles on and, when a delayed tap exists,
// records the queue lengths — unchanged over the n cycles — in the ring.
func (c *Collector) advance(n int64) {
	if c.cycle += n; len(c.qlenHist) > 0 {
		c.record(n)
	}
}

// record is advance's ring, out of line: only an RBA score latency has one.
//
//go:noinline
func (c *Collector) record(n int64) {
	ring := int64(len(c.qlenHist))
	for i := min(n, ring); i > 0; i-- { // older slots would be overwritten anyway
		c.histPos++
		if c.histPos == len(c.qlenHist) {
			c.histPos = 0
		}
		for b, q := range c.normal {
			c.qlenHist[c.histPos][b] = int16(q)
		}
	}
	if n > ring {
		// Every slot holds the same lengths; land histPos where n
		// single-cycle advances would have left it.
		c.histPos = int((int64(c.histPos) + n - ring) % ring)
	}
}

// neverCycle is the NextEvent sentinel for "no intrinsic future event".
const neverCycle = int64(math.MaxInt64)

// NextEvent returns the earliest cycle at which a Tick would mutate
// collector state: now when any bank has a queued read or writeback
// (grants fire every cycle) or a non-stolen collector unit is staged
// (it dispatches, or blocks attributably, every cycle), and neverCycle
// otherwise — one test of the maintained busy count. A *stolen*
// pre-allocation with all operands collected is inert: it converts only at
// formal issue, which requires an issuable warp — the sub-core's own
// quiescence check covers that. This is the contract a sleeping SM relies
// on: while every collector reports no event, the Ticks it did not run
// would have been no-ops (grant-less, dispatch-less) except for the clock
// and queue-length ring, which FastForward replays exactly.
func (c *Collector) NextEvent(now int64) int64 {
	if c.busy > 0 {
		return now
	}
	return neverCycle
}

// popAt removes q[i], keeping FIFO order. Most grants take a queue's only
// entry; a plain loop moves the few small ones behind it for less than a
// memmove call costs.
func popAt[T any](q []T, i int) []T {
	last := len(q) - 1
	for ; i < last; i++ {
		q[i] = q[i+1]
	}
	return q[:last]
}

// derive recounts the maintained summary from collectorState into d: the
// reference restore installs and Audit compares with.
func (c *Collector) derive(d *derived) {
	d.busy, d.free, d.ready = 0, 0, 0
	for b := 0; b < c.banks; b++ {
		d.busy += len(c.queues[b]) + len(c.writes[b])
		d.normal[b] = 0
		for _, r := range c.queues[b] {
			if !r.stolen {
				d.normal[b]++
			}
		}
	}
	for i := range c.cus {
		u := &c.cus[i]
		switch {
		case !u.Valid:
			d.free |= 1 << uint(i)
		case !u.Stolen:
			d.busy++
		}
		if u.Ready() {
			d.ready |= 1 << uint(i)
		}
	}
}

// FastForward advances the collector's clock by n quiescent cycles,
// replaying exactly what n Ticks would have done given NextEvent
// reported no event: no grants, no dispatches, only the cycle counter
// and — where a delayed tap exists — the queue-length history ring
// advancing (it feeds RBA's delayed score, so it must stay bit-exact
// across a sleep). Every queue is empty, so each replayed slot records zeros.
// Without a ring that is one add, inlined into the sleep path.
func (c *Collector) FastForward(n int64) {
	if c.busy == 0 && len(c.qlenHist) == 0 {
		c.cycle += n
		return
	}
	c.forward(n)
}

// forward is FastForward's guard and ring, out of line.
//
//go:noinline
func (c *Collector) forward(n int64) {
	if c.busy != 0 {
		panic("regfile: fast-forward over a collector with work queued")
	}
	c.advance(n)
}

// Drained reports whether no collector unit is occupied and no request is
// queued — used by tests and by the sub-core's completion check.
func (c *Collector) Drained() bool {
	return c.busy == 0 && bits.OnesCount64(c.free) == len(c.cus)
}
