package regfile

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/trace"
)

// refCollector is the FIFO arbiter the reservations replaced, kept as the
// reference TestCollectorMatchesReference holds the collector to: each bank
// queues one request per operand read, grants the oldest normal one each
// cycle (a stolen one only with no normal one queued) and counts the normal
// ones down as its queue length; a unit counts its reads down to ready.
type refCollector struct {
	cus      []refUnit
	queues   [][]refRead
	writes   [][]WriteReq
	qlenHist [][]int16
	histPos  int
	cycle    int64

	banks    int
	busy     int
	free     uint64
	normal   []int
	ready    uint64
	grantedW []WriteReq
	st       *stats.SubCore
	tr       *trace.SMT
}

// refUnit is a collector unit with a count of its operands not yet granted.
type refUnit struct {
	CollectorUnit
	pending int8
}

// refRead is a source-operand read queued at a bank.
type refRead struct {
	cu     int8
	stolen bool
}

func newRefCollector(numCUs, numBanks, scoreDelay int, st *stats.SubCore, tr *trace.SMT) *refCollector {
	c := &refCollector{
		cus:    make([]refUnit, numCUs),
		queues: make([][]refRead, numBanks),
		writes: make([][]WriteReq, numBanks),
		banks:  numBanks,
		free:   1<<uint(numCUs) - 1,
		normal: make([]int, numBanks),
		st:     st,
		tr:     tr,
	}
	c.qlenHist = make([][]int16, scoreDelay)
	for i := range c.qlenHist {
		c.qlenHist[i] = make([]int16, numBanks)
	}
	return c
}

func (c *refCollector) FreeCU() int {
	if c.free == 0 {
		return -1
	}
	return bits.TrailingZeros64(c.free)
}

func (c *refCollector) Allocate(cu int, warpIdx, schedSlot int32, in isa.Instr, bankOff int, stolen bool) {
	u := &c.cus[cu]
	if u.Valid {
		panic("regfile: allocating an occupied collector unit")
	}
	*u = refUnit{CollectorUnit: CollectorUnit{Valid: true, WarpIdx: warpIdx, SchedSlot: schedSlot, Instr: in, Stolen: stolen, AllocCycle: c.cycle}}
	c.free &^= 1 << uint(cu)
	if !stolen {
		c.busy++
	}
	for _, s := range in.Srcs {
		if !s.Valid() {
			continue
		}
		b := BankWithOffset(bankOff, s, c.banks)
		u.pending++
		c.busy++
		if !stolen {
			c.normal[b]++
		}
		c.queues[b] = append(c.queues[b], refRead{cu: int8(cu), stolen: stolen})
	}
	if u.pending == 0 {
		c.ready |= 1 << uint(cu)
	}
}

func (c *refCollector) Unsteal(cu int) {
	c.cus[cu].Stolen = false
	c.busy++
}

func (c *refCollector) EnqueueWrite(w WriteReq) {
	c.writes[w.Bank] = append(c.writes[w.Bank], w)
	c.busy++
}

func (c *refCollector) GrantedWrites() []WriteReq { return c.grantedW }

func (c *refCollector) QueueLen(b int) int { return c.normal[b] }

func (c *refCollector) Backlogged() bool {
	for _, n := range c.normal {
		if n > 0 {
			return true
		}
	}
	return false
}

func (c *refCollector) BlockedOnMem() bool {
	for m := c.ready; m != 0; m &= m - 1 {
		if u := &c.cus[bits.TrailingZeros64(m)]; !u.Stolen && u.Instr.Op.UnitOf() == isa.ClassMEM {
			return true
		}
	}
	return false
}

func (c *refCollector) DelayedQueueLen(b, delay int) int {
	delay = min(delay, len(c.qlenHist))
	if delay <= 0 {
		return c.QueueLen(b)
	}
	idx := c.histPos - (delay - 1)
	if idx < 0 {
		idx += len(c.qlenHist)
	}
	return int(c.qlenHist[idx][b])
}

func (c *refCollector) Grant() uint64 {
	c.grantedW = c.grantedW[:0]
	if c.busy == 0 {
		return 0
	}
	for b := 0; b < c.banks; b++ {
		if len(c.writes[b]) > 0 {
			w := c.writes[b][0]
			c.grantedW = append(c.grantedW, w)
			c.writes[b] = popAt(c.writes[b], 0)
			c.busy--
			c.st.RegWrites++
			c.st.BankConflicts += int64(len(c.writes[b]))
			c.tr.Emit(trace.KBankWrite, 0, w.WarpIdx, int32(b), 0)
		}
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
			if u.pending--; u.pending == 0 {
				c.ready |= 1 << uint(r.cu)
			}
			c.st.RegReads++
			c.st.BankConflicts += int64(c.normal[b])
			c.tr.Emit(trace.KBankRead, 0, u.WarpIdx, int32(b), int32(r.cu))
		}
	}
	return c.ready
}

func (c *refCollector) Oldest(m uint64) int {
	best := bits.TrailingZeros64(m)
	for m &= m - 1; m != 0; m &= m - 1 {
		if i := bits.TrailingZeros64(m); c.cus[i].AllocCycle < c.cus[best].AllocCycle {
			best = i
		}
	}
	return best
}

func (c *refCollector) CU(i int) *CollectorUnit { return &c.cus[i].CollectorUnit }

func (c *refCollector) Dispatched(i int) {
	if !c.cus[i].Stolen {
		c.busy--
	}
	c.cus[i] = refUnit{}
	c.free |= 1 << uint(i)
	c.ready &^= 1 << uint(i)
}

func (c *refCollector) EndCycle() { c.advance(1) }

func (c *refCollector) advance(n int64) {
	c.cycle += n
	ring := int64(len(c.qlenHist))
	if ring == 0 {
		return
	}
	for i := min(n, ring); i > 0; i-- {
		c.histPos++
		if c.histPos == len(c.qlenHist) {
			c.histPos = 0
		}
		for b, q := range c.normal {
			c.qlenHist[c.histPos][b] = int16(q)
		}
	}
	if n > ring {
		c.histPos = int((int64(c.histPos) + n - ring) % ring)
	}
}

func (c *refCollector) NextEvent(now int64) int64 {
	if c.busy > 0 {
		return now
	}
	return neverCycle
}

func (c *refCollector) FastForward(n int64) {
	if c.busy != 0 {
		panic("regfile: fast-forward over a collector with work queued")
	}
	c.advance(n)
}

func (c *refCollector) Drained() bool {
	return c.busy == 0 && bits.OnesCount64(c.free) == len(c.cus)
}

// arbiter is what the sub-core asks of a collector, which the collector and
// the reference both answer.
type arbiter interface {
	FreeCU() int
	Allocate(cu int, warpIdx, schedSlot int32, in isa.Instr, bankOff int, stolen bool)
	Unsteal(cu int)
	EnqueueWrite(w WriteReq)
	Grant() uint64
	Oldest(m uint64) int
	CU(i int) *CollectorUnit
	Dispatched(i int)
	EndCycle()
	GrantedWrites() []WriteReq
	QueueLen(b int) int
	DelayedQueueLen(b, delay int) int
	Backlogged() bool
	BlockedOnMem() bool
	NextEvent(now int64) int64
	FastForward(n int64)
	Drained() bool
}

// TestCollectorMatchesReference drives the collector and the FIFO reference
// in lockstep through random streams — normal and stolen allocations of
// zero to three operands, conversions of stolen units, writebacks, a
// dispatch that refuses units now and then through a bounded number of
// ports, idle stretches fast-forwarded — over 1, 2, 4 and 8 banks, 1, 2, 8
// and 64 units and score latencies 0, 1 and 3. Every cycle they must agree
// on the collected units, the granted writes, every queue length live and
// delayed, the stall signatures, the read and conflict counts and the bank
// grant events, and the collector must pass its lease law.
func TestCollectorMatchesReference(t *testing.T) {
	for _, banks := range []int{1, 2, 4, 8} {
		for _, cus := range []int{1, 2, 8, 64} {
			for _, lat := range []int{0, 1, 3} {
				t.Run(fmt.Sprintf("%db_%dcu_lat%d", banks, cus, lat), func(t *testing.T) {
					lockstep(t, banks, cus, lat, int64(banks*1000+cus*10+lat))
				})
			}
		}
	}
}

func lockstep(t *testing.T, banks, cus, lat int, seed int64) {
	const cycles = 1500
	rng := rand.New(rand.NewSource(seed))
	tracer := func() *trace.Tracer {
		return trace.New(trace.Options{SMs: 1, SubCores: 1, Banks: banks, SM: 0, RingCap: 1 << 16})
	}
	var stNew, stRef stats.SubCore
	trNew, trRef := tracer(), tracer()
	c := NewCollector(cus, banks, lat, &stNew)
	c.SetTracer(trNew.ForSM(0), 0)
	ref := newRefCollector(cus, banks, lat, &stRef, trRef.ForSM(0))
	sides := []arbiter{c, ref}
	// Allocation pressure varies by stretch so queues both build and drain.
	pressure := 2
	for cyc := 0; cyc < cycles; cyc++ {
		now := c.Cycle()
		trNew.SetNow(now)
		trRef.SetNow(now)
		if cyc%100 == 0 {
			pressure = rng.Intn(4)
		}
		// Decide the cycle's inputs once, for both sides.
		var convert []int
		allocs := rng.Intn(pressure + 1)
		writes := rng.Intn(3)
		if rng.Intn(2) == 0 {
			writes = 0
		}
		for i := range cus {
			if u := c.CU(i); u.Valid && u.Stolen && rng.Intn(4) == 0 {
				convert = append(convert, i)
			}
		}
		type alloc struct {
			in     isa.Instr
			off    int
			stolen bool
		}
		var as []alloc
		for range allocs {
			var srcs [3]isa.Reg
			for j := range srcs {
				srcs[j] = isa.NoReg
				if rng.Intn(4) > 0 {
					srcs[j] = isa.Reg(rng.Intn(16))
				}
			}
			in := isa.Instr{Op: isa.OpFMA, Dst: 4, Srcs: srcs}
			if rng.Intn(5) == 0 {
				in = isa.MakeLoad(isa.OpLDG, 4, srcs[0], isa.MemTrait{Pattern: isa.PatCoalesced})
			}
			as = append(as, alloc{in, rng.Intn(16), rng.Intn(4) == 0})
		}
		var ws []WriteReq
		for range writes {
			ws = append(ws, WriteReq{WarpIdx: int32(rng.Intn(64)), Reg: isa.Reg(rng.Intn(16)), Bank: int8(rng.Intn(banks))})
		}
		deny, ports := rng.Uint64(), 1+rng.Intn(2)
		idle := int64(rng.Intn(20))

		var ready [2]uint64
		var granted [2][]WriteReq
		var dispatched [2][]int32
		for k, a := range sides {
			for _, i := range convert {
				a.Unsteal(i)
			}
			for n, al := range as {
				if cu := a.FreeCU(); cu >= 0 {
					a.Allocate(cu, int32(cyc*4+n), int32(cu), al.in, al.off, al.stolen)
				}
			}
			for _, w := range ws {
				a.EnqueueWrite(w)
			}
			ready[k] = a.Grant()
			granted[k] = append(granted[k], a.GrantedWrites()...)
			left := ports
			for m := ready[k]; m != 0 && left > 0; {
				i := a.Oldest(m)
				m &^= 1 << uint(i)
				if u := a.CU(i); !u.Stolen && deny>>(uint(u.WarpIdx)&63)&1 == 0 {
					dispatched[k] = append(dispatched[k], u.WarpIdx)
					a.Dispatched(i)
					left--
				}
			}
			a.EndCycle()
		}
		if ready[0] != ready[1] || !slices.Equal(granted[0], granted[1]) || !slices.Equal(dispatched[0], dispatched[1]) {
			t.Fatalf("cycle %d: collected %#x vs %#x, writes %v vs %v, dispatched %v vs %v",
				now, ready[0], ready[1], granted[0], granted[1], dispatched[0], dispatched[1])
		}
		for b := range banks {
			for d := 0; d <= lat+1; d++ {
				if x, y := c.DelayedQueueLen(b, d), ref.DelayedQueueLen(b, d); x != y {
					t.Fatalf("cycle %d: bank %d queue length at delay %d: %d, the reference %d", now, b, d, x, y)
				}
			}
			if c.QueueLen(b) != ref.QueueLen(b) {
				t.Fatalf("cycle %d: bank %d queue length %d, the reference %d", now, b, c.QueueLen(b), ref.QueueLen(b))
			}
		}
		if c.Backlogged() != ref.Backlogged() || c.BlockedOnMem() != ref.BlockedOnMem() || stNew != stRef ||
			c.Drained() != ref.Drained() || c.NextEvent(c.Cycle()) != ref.NextEvent(ref.cycle) {
			t.Fatalf("cycle %d: backlogged %t/%t, blocked on memory %t/%t, stats %+v / %+v, drained %t/%t",
				now, c.Backlogged(), ref.Backlogged(), c.BlockedOnMem(), ref.BlockedOnMem(), stNew, stRef, c.Drained(), ref.Drained())
		}
		if vs := c.Audit("t"); len(vs) != 0 {
			t.Fatalf("cycle %d: %v", now, vs)
		}
		if c.NextEvent(c.Cycle()) > c.Cycle() && idle > 0 && rng.Intn(3) == 0 {
			c.FastForward(idle)
			ref.FastForward(idle)
		}
	}
	if stRef.RegReads == 0 || stRef.BankConflicts == 0 {
		t.Fatalf("the stream never contended: %+v", stRef)
	}
	evNew, evRef := trNew.Events(0), trRef.Events(0)
	for i := range min(len(evNew), len(evRef)) {
		if evNew[i] != evRef[i] {
			t.Fatalf("bank grant event %d: %+v, the reference %+v", i, evNew[i], evRef[i])
		}
	}
	if len(evNew) != len(evRef) {
		t.Fatalf("%d bank grant events, the reference %d", len(evNew), len(evRef))
	}
}
