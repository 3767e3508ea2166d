// Package regfile models the banked register file, its arbitration unit,
// and the operand collector of one GPU sub-core (Fig. 2 and Fig. 6 of the
// paper).
//
// Each sub-core owns a small number of banks (2 on Volta/Ampere) and
// collector units (2 on Volta). A warp instruction issued by the scheduler
// is staged in a collector unit, which reads one register per source
// operand from the operand's bank. Each bank has one read port and one
// write port (1R+1W): in one cycle it drains one writeback and grants one
// read (Collector.Grant). When all operands are collected the instruction
// dispatches to its execution unit and the collector unit frees.
//
// A read port is a reservation, not a queue. A bank serves its normal reads
// first in first out, one per cycle, and nothing overtakes them, so
// Allocate fixes a normal read's grant cycle when it queues it: the bank's
// next free read cycle, max(now, rfree[b]), after which rfree[b] moves one
// on. A bank-stealing read takes only a cycle no normal read holds: it waits
// in a per-bank FIFO, and its grant cycle is set when an idle port takes it.
// The arbiter's queue length at bank b is the reservations still ahead,
// rfree[b] − now.
//
// A single port per bank with writebacks first, as GPGPU-Sim arbitrates, is
// hypothesis H2 of ROADMAP item 1, not the model. Under it, a write granted
// at t on bank b moves every reservation at b from t onward one cycle later:
// a loop over the bank's pending operands and rfree[b]++, no queue.
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

// unread is the grant cycle of a stolen operand read no idle port has
// taken yet: later than any cycle, so a unit holding one is not collected.
const unread = math.MaxInt64

// CollectorUnit stages one warp instruction while its operands are read.
type CollectorUnit struct {
	// Valid marks the CU occupied.
	Valid bool
	// WarpIdx identifies the issuing warp within the SM.
	WarpIdx int32
	// SchedSlot is the warp's slot in its scheduler. The simulator never
	// reads it; the benchmark's collector driver does, to find the bank
	// offset of a dispatched unit's writeback.
	SchedSlot int32
	// Instr is the staged instruction.
	Instr isa.Instr
	// Bank[j] is the bank source operand j reads; 0 for an unused slot.
	Bank [3]int8
	// At[j] is the cycle source operand j's read is granted: reserved by
	// Allocate for a normal read, set when an idle port takes a stolen one
	// (unread until then); 0 for an unused slot. The operand is collected
	// once the clock has passed it.
	At [3]int64
	// Stolen marks a bank-stealing pre-allocation: its reads only use
	// otherwise-idle bank cycles and it never blocks normal traffic.
	Stolen bool
	// AllocCycle records when the CU was filled: dispatch order.
	AllocCycle int64
}

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

	// Audit's reusable scratch and recounted summary: the periodic
	// invariant sweep must not allocate per visit.
	auditRefs []int
	auditSeen []bool
	auditWant derived

	// tr emits bank-grant trace events when the SM is traced (nil
	// otherwise — the disabled fast path); trSub is the owning sub-core.
	tr    *trace.SMT
	trSub int8
}

// derived answers, in O(1), what the issue stage and Grant ask every cycle.
// It is a function of collectorState (derive): maintained at every
// mutation, rebuilt on restore, and re-derived by Audit.
type derived struct {
	// busy counts what makes a Tick do work: pending reads, queued
	// writebacks and staged non-stolen units.
	busy int
	// free has bit i set while collector unit i is unoccupied.
	free uint64
	// rfree[b] is one past the latest normal read reserved at bank b: the
	// next cycle its read port is free. At or below the clock, no normal
	// read waits there.
	rfree []int64
	// ready has bit i set while unit i has collected every operand:
	// dispatch candidates.
	ready uint64
	// waiting has bit i set while occupied unit i still has a read pending.
	waiting uint64
}

// collectorState is everything about a collector that changes as it runs
// and must survive a snapshot: plain data only, carried whole by
// snapshot.State (snapshot.go). The fixed tags are the shape NewCollector
// built: CU count, banks, score-delay ring.
type collectorState struct {
	cus []CollectorUnit `snap:"fixed"`
	// stolen[b] names, first in first out, the unit of each stolen read
	// waiting at bank b for an idle port.
	stolen [][]int8 `snap:"fixed"`
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
			stolen: make([][]int8, numBanks),
			writes: make([][]WriteReq, numBanks),
		},
		banks:     numBanks,
		derived:   derived{free: 1<<uint(numCUs) - 1, rfree: make([]int64, numBanks)},
		auditWant: derived{rfree: make([]int64, numBanks)},
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
// SlotOffset). Each valid source operand's read is reserved at its bank's
// next free read cycle, or, for a stolen pre-allocation, queued for an idle
// port. Allocate panics if the CU is occupied — the issue stage must check
// FreeCU first.
func (c *Collector) Allocate(cu int, warpIdx, schedSlot int32, in isa.Instr, bankOff int, stolen bool) {
	u := &c.cus[cu]
	if u.Valid {
		panic("regfile: allocating an occupied collector unit")
	}
	now := c.cycle
	// Every field, one by one: a composite literal of the unit, larger than
	// the compiler moves inline, is a duffcopy call per allocation.
	u.Valid, u.WarpIdx, u.SchedSlot, u.Instr = true, warpIdx, schedSlot, in
	u.Bank, u.At, u.Stolen, u.AllocCycle = [3]int8{}, [3]int64{}, stolen, now
	c.free &^= 1 << uint(cu)
	if !stolen {
		c.busy++
	}
	for j, s := range in.Srcs {
		if !s.Valid() {
			continue
		}
		b := BankWithOffset(bankOff, s, c.banks)
		u.Bank[j] = int8(b)
		c.busy++
		if stolen {
			u.At[j] = unread
			c.stolen[b] = append(c.stolen[b], int8(cu))
			continue
		}
		at := max(now, c.rfree[b])
		u.At[j], c.rfree[b] = at, at+1
	}
	if !in.HasSrc() {
		c.ready |= 1 << uint(cu)
	} else {
		c.waiting |= 1 << uint(cu)
	}
}

// Unsteal converts collector unit cu's bank-stealing pre-allocation into a
// normal issue: the operands are already (being) read — its reads still
// waiting stay stolen, idle-cycle traffic the arbiter tap does not count —
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

// QueueLen returns the number of *normal* (non-stolen) reads still waiting
// at bank b — the quantity summed into RBA scores.
func (c *Collector) QueueLen(b int) int { return int(max(0, c.rfree[b]-c.cycle)) }

// Backlogged reports whether any bank has a normal (non-stolen) read
// waiting — the signature the issue stage uses to attribute a
// no-free-collector-unit stall to bank conflicts rather than plain CU
// exhaustion (the CPI stack's bank-conflict component).
func (c *Collector) Backlogged() bool {
	for _, r := range c.rfree {
		if r > c.cycle {
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
// and grants one read: the read reserved for this cycle, or else, the port
// being idle, the oldest stolen read; a read left waiting is a bank
// conflict — and returns the collected units. With busy == 0 it returns
// none at once.
func (c *Collector) Grant() uint64 {
	c.grantedW = c.grantedW[:0]
	if c.busy == 0 {
		return 0
	}
	now := c.cycle
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
		// Read port: the normal read reserved for now, the reads reserved
		// behind it waiting; with none, the oldest stolen read steals it.
		if r := c.rfree[b]; r > now {
			c.busy--
			if c.st != nil {
				c.st.RegReads++
				c.st.BankConflicts += r - now - 1
			}
			if c.tr != nil {
				c.traceRead(b, now)
			}
		} else if len(c.stolen[b]) > 0 {
			c.grantStolen(b, now)
		}
	}
	for m := c.waiting; m != 0; m &= m - 1 {
		if i := bits.TrailingZeros64(m); c.cus[i].lands() <= now {
			c.ready |= 1 << uint(i)
			c.waiting &^= 1 << uint(i)
		}
	}
	return c.ready
}

// lands returns the cycle the last operand read of a unit with reads is
// granted: unread while a stolen read waits.
func (u *CollectorUnit) lands() int64 { return max(u.At[0], u.At[1], u.At[2]) }

// grantStolen gives bank b's idle read port at cycle now to the oldest
// stolen read waiting there.
func (c *Collector) grantStolen(b int, now int64) {
	cu := int(c.stolen[b][0])
	c.stolen[b] = popAt(c.stolen[b], 0)
	c.busy--
	u := &c.cus[cu]
	j := 0
	for u.At[j] != unread || int(u.Bank[j]) != b {
		j++ // past the operands, a unit with no stolen read here panics
	}
	u.At[j] = now
	if c.st != nil {
		c.st.RegReads++
	}
	if c.tr != nil {
		c.tr.Emit(trace.KBankRead, c.trSub, u.WarpIdx, int32(b), int32(cu))
	}
}

// traceRead emits the grant of the normal read reserved at bank b for
// cycle now, naming the waiting unit that holds it.
func (c *Collector) traceRead(b int, now int64) {
	for m := c.waiting; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		u := &c.cus[i]
		for j, at := range u.At {
			if at == now && int(u.Bank[j]) == b && u.Instr.Srcs[j].Valid() {
				c.tr.Emit(trace.KBankRead, c.trSub, u.WarpIdx, int32(b), int32(i))
				return
			}
		}
	}
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
// A free unit is the zero unit, so equal collectors encode to equal bytes.
// It is zeroed field by field, as Allocate fills it: the whole-unit literal
// compiles to a runtime.duffzero call on every dispatch.
func (c *Collector) Dispatched(i int) {
	u := &c.cus[i]
	if !u.Stolen {
		c.busy--
	}
	u.Valid, u.WarpIdx, u.SchedSlot, u.Instr = false, 0, 0, isa.Instr{}
	u.Bank, u.At, u.Stolen, u.AllocCycle = [3]int8{}, [3]int64{}, false, 0
	c.free |= 1 << uint(i)
	c.ready &^= 1 << uint(i)
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
		for b := range c.rfree {
			c.qlenHist[c.histPos][b] = int16(c.QueueLen(b))
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
// collector state: now when any bank has a pending read or a queued
// writeback (grants fire every cycle) or a non-stolen collector unit is
// staged (it dispatches, or blocks attributably, every cycle), and
// neverCycle otherwise — one test of the maintained busy count. A *stolen*
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
// reference restore installs and Audit compares with. A bank with no normal
// read pending reads rfree = the clock. An operand naming a bank out of
// range is skipped here and reported by Audit.
func (c *Collector) derive(d *derived) {
	d.busy, d.free, d.ready, d.waiting = 0, 0, 0, 0
	for b := 0; b < c.banks; b++ {
		d.busy += len(c.stolen[b]) + len(c.writes[b])
		d.rfree[b] = c.cycle
	}
	for i := range c.cus {
		u := &c.cus[i]
		if !u.Valid {
			d.free |= 1 << uint(i)
			continue
		}
		if !u.Stolen {
			d.busy++
		}
		collected := true
		for j, s := range u.Instr.Srcs {
			at, b := u.At[j], int(u.Bank[j])
			if !s.Valid() || at < c.cycle {
				continue
			}
			collected = false
			if at != unread && b >= 0 && b < c.banks {
				d.busy++
				d.rfree[b] = max(d.rfree[b], at+1)
			}
		}
		if collected {
			d.ready |= 1 << uint(i)
		} else {
			d.waiting |= 1 << uint(i)
		}
	}
}

// FastForward advances the collector's clock by n quiescent cycles,
// replaying exactly what n Ticks would have done given NextEvent
// reported no event: no grants, no dispatches, only the cycle counter
// and — where a delayed tap exists — the queue-length history ring
// advancing (it feeds RBA's delayed score, so it must stay bit-exact
// across a sleep). No read is pending, so each replayed slot records zeros.
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
