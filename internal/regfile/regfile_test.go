package regfile

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/stats"
)

// offOf returns the swizzled bank offset for a slot (test helper).
func offOf(slot int) int { return SlotOffset(slot, true) }

// bankOf maps a warp's register to a bank the way the simulator does:
// the slot's offset once, then the register.
func bankOf(warpSlot int, reg isa.Reg, banks int, swizzle bool) int {
	return BankWithOffset(SlotOffset(warpSlot, swizzle), reg, banks)
}

func TestBankOfPlain(t *testing.T) {
	// Volta's silicon mapping: bank = reg mod banks, slot-independent.
	if bankOf(0, 0, 2, false) != 0 || bankOf(0, 1, 2, false) != 1 || bankOf(0, 2, 2, false) != 0 {
		t.Error("register interleaving wrong")
	}
	for slot := 0; slot < 16; slot++ {
		if bankOf(slot, 5, 2, false) != 1 {
			t.Error("plain mapping must ignore the warp slot")
		}
	}
	if bankOf(5, 9, 1, false) != 0 || bankOf(5, 9, 1, true) != 0 {
		t.Error("single bank must map everything to 0")
	}
	if bankOf(0, 7, 8, false) != 7 {
		t.Error("8-bank plain mapping wrong")
	}
}

func TestBankOfSwizzled(t *testing.T) {
	// Swizzled mapping keeps the low bit so 2-bank sub-cores stay
	// balanced: adjacent slots flip parity.
	if bankOf(0, 0, 2, true) != 0 || bankOf(1, 0, 2, true) != 1 {
		t.Error("slot parity must flip the 2-bank mapping")
	}
	// Registers still alternate banks within a slot.
	if bankOf(0, 0, 2, true) == bankOf(0, 1, 2, true) {
		t.Error("adjacent registers must alternate banks")
	}
	// Stride-4 slots must not share one bank class on 8 banks (the
	// degenerate pattern a plain (reg+slot) offset would produce).
	seen := map[int]bool{}
	for _, slot := range []int{0, 4, 8, 12} {
		seen[bankOf(slot, 4, 8, true)] = true
	}
	if len(seen) < 3 {
		t.Errorf("stride-4 slots cover only %d banks", len(seen))
	}
}

func TestAllocateAndCollect(t *testing.T) {
	st := &stats.SubCore{}
	c := NewCollector(2, 2, 0, st)
	if c.FreeCU() != 0 {
		t.Fatal("fresh collector must have all CUs free")
	}
	// FMA R4 <- R1,R2,R3 at slot 0 with 2 banks: R1->b1, R2->b0, R3->b1.
	in := isa.MakeFMA(4, 1, 2, 3)
	c.Allocate(0, 7, 0, in, offOf(0), false)
	if c.FreeCU() != 1 {
		t.Error("CU not marked occupied")
	}
	if c.QueueLen(0) != 1 || c.QueueLen(1) != 2 {
		t.Errorf("queue lengths = %d,%d want 1,2", c.QueueLen(0), c.QueueLen(1))
	}
	dispatched := 0
	dispatch := func(cu *CollectorUnit) bool { dispatched++; return true }
	// Cycle 1: bank0 grants R2, bank1 grants R1 (or R3) -> pending 1.
	c.Tick(dispatch)
	if got := c.CU(0).Pending; got != 1 {
		t.Fatalf("pending after tick1 = %d, want 1", got)
	}
	if dispatched != 0 {
		t.Fatal("dispatched before operands ready")
	}
	// Cycle 2: bank1 grants the last operand; CU ready and dispatches.
	c.Tick(dispatch)
	if dispatched != 1 {
		t.Fatalf("dispatched = %d, want 1", dispatched)
	}
	if !c.Drained() {
		t.Error("collector should be drained")
	}
	if st.RegReads != 3 {
		t.Errorf("RegReads = %d, want 3", st.RegReads)
	}
	// The R3 request waited one cycle behind R1 at bank 1.
	if st.BankConflicts != 1 {
		t.Errorf("BankConflicts = %d, want 1", st.BankConflicts)
	}
}

func TestZeroSourceAllocationIsImmediatelyReady(t *testing.T) {
	c := NewCollector(1, 2, 0, nil)
	c.Allocate(0, 0, 0, isa.Make1(isa.OpMOV, 1, isa.NoReg), offOf(0), false)
	if !c.CU(0).Ready() {
		t.Error("zero-source CU must be ready at allocation")
	}
	n := 0
	c.Tick(func(cu *CollectorUnit) bool { n++; return true })
	if n != 1 || !c.Drained() {
		t.Error("zero-source CU failed to dispatch")
	}
}

func TestDualPortedBanks(t *testing.T) {
	// Banks have one read and one write port (Volta-style): a read and a
	// writeback to the same bank proceed in the same cycle, but two
	// writebacks serialize.
	st := &stats.SubCore{}
	c := NewCollector(1, 2, 0, st)
	c.Allocate(0, 0, 0, isa.Make1(isa.OpMOV, 2, 0), offOf(0), false) // R0 -> bank0
	c.EnqueueWrite(WriteReq{WarpIdx: 3, Reg: 4, Bank: 0})
	c.EnqueueWrite(WriteReq{WarpIdx: 5, Reg: 6, Bank: 0})
	c.Tick(func(cu *CollectorUnit) bool { return true })
	if got := len(c.GrantedWrites()); got != 1 {
		t.Fatalf("granted writes = %d, want 1 (write port serializes)", got)
	}
	if c.GrantedWrites()[0].WarpIdx != 3 {
		t.Error("wrong write granted")
	}
	if c.CU(0).Valid {
		t.Error("read port should have served the lone read in parallel")
	}
	if st.RegReads != 1 || st.RegWrites != 1 {
		t.Errorf("reads/writes = %d/%d, want 1/1", st.RegReads, st.RegWrites)
	}
	if st.BankConflicts != 1 {
		t.Errorf("BankConflicts = %d, want 1 (second write waited)", st.BankConflicts)
	}
	c.Tick(func(cu *CollectorUnit) bool { return true })
	if !c.Drained() {
		t.Error("second write should drain on the next cycle")
	}
}

func TestStolenReadsOnlyUseIdleBanks(t *testing.T) {
	c := NewCollector(2, 1, 0, nil)
	// Normal CU with 2 operands on the single bank; stolen CU with 1.
	c.Allocate(0, 0, 0, isa.Make2(isa.OpFADD, 4, 0, 1), 0, false)
	c.Allocate(1, 1, 1, isa.Make1(isa.OpMOV, 5, 0), 0, true)
	noDispatch := func(cu *CollectorUnit) bool { return true }
	c.Tick(noDispatch) // normal op 1 granted
	c.Tick(noDispatch) // normal op 2 granted; normal CU dispatches
	if c.CU(1).Pending != 1 {
		t.Fatalf("stolen read granted while normal traffic pending (pending=%d)", c.CU(1).Pending)
	}
	c.Tick(noDispatch) // bank idle: stolen read granted
	if c.CU(1).Valid {
		t.Error("stolen CU should have collected and dispatched")
	}
}

func TestDispatchSkipsBlockedUnit(t *testing.T) {
	c := NewCollector(2, 8, 0, nil)
	// Two CUs, both single-source on different banks, both ready after
	// one tick. The older targets a "busy" unit; the younger must still
	// dispatch.
	c.Allocate(0, 0, 0, isa.Make1(isa.OpSFU, 4, 0), offOf(0), false)
	c.Allocate(1, 1, 1, isa.Make1(isa.OpMOV, 5, 1), offOf(0), false)
	var dispatched []isa.Op
	c.Tick(func(cu *CollectorUnit) bool {
		if cu.Instr.Op == isa.OpSFU {
			return false // SFU busy
		}
		dispatched = append(dispatched, cu.Instr.Op)
		return true
	})
	if len(dispatched) != 1 || dispatched[0] != isa.OpMOV {
		t.Errorf("dispatched = %v, want [MOV]", dispatched)
	}
	if !c.CU(0).Valid {
		t.Error("blocked CU must stay staged")
	}
}

func TestQueueLenExcludesStolen(t *testing.T) {
	c := NewCollector(2, 1, 0, nil)
	c.Allocate(0, 0, 0, isa.Make1(isa.OpMOV, 4, 0), 0, false)
	c.Allocate(1, 1, 1, isa.Make1(isa.OpMOV, 5, 0), 0, true)
	if got := c.QueueLen(0); got != 1 {
		t.Errorf("QueueLen = %d, want 1 (stolen excluded)", got)
	}
}

func TestDelayedQueueLen(t *testing.T) {
	c := NewCollector(4, 1, 3, nil)
	nop := func(cu *CollectorUnit) bool { return true }
	// Build up a queue of 3 normal reads, then observe history.
	for i := 0; i < 3; i++ {
		c.Allocate(i, int32(i), int32(i), isa.Make1(isa.OpMOV, 4, 0), 0, false)
	}
	c.Tick(nop) // after: 2 left, snapshot[now] = 2
	c.Tick(nop) // after: 1 left, snapshot[now] = 1
	if got := c.DelayedQueueLen(0, 0); got != 1 {
		t.Errorf("delay0 = %d, want 1", got)
	}
	if got := c.DelayedQueueLen(0, 1); got != 1 {
		t.Errorf("delay1 = %d, want 1 (snapshot at end of last tick)", got)
	}
	if got := c.DelayedQueueLen(0, 2); got != 2 {
		t.Errorf("delay2 = %d, want 2", got)
	}
	// Delay beyond history saturates to oldest.
	if c.DelayedQueueLen(0, 50) != c.DelayedQueueLen(0, 3) {
		t.Error("over-delay must saturate to ring capacity")
	}
}

func TestAllocatePanicsOnOccupiedCU(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	c := NewCollector(1, 1, 0, nil)
	c.Allocate(0, 0, 0, isa.MakeBar(), offOf(0), false)
	c.Allocate(0, 1, 1, isa.MakeBar(), offOf(0), false)
}

func TestEnqueueWritePanicsOnBadBank(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	c := NewCollector(1, 2, 0, nil)
	c.EnqueueWrite(WriteReq{Bank: 5})
}

// Property: for any sequence of single-source allocations, total grants
// equal total operands and the collector always drains.
func TestCollectorAlwaysDrainsProperty(t *testing.T) {
	f := func(regs []uint8) bool {
		if len(regs) > 24 {
			regs = regs[:24]
		}
		st := &stats.SubCore{}
		c := NewCollector(2, 2, 0, st)
		i := 0
		var want int64
		for cycles := 0; cycles < 1000; cycles++ {
			if cu := c.FreeCU(); cu != -1 && i < len(regs) {
				in := isa.MakeFMA(4, isa.Reg(regs[i]%8), isa.Reg(regs[i]%3), isa.Reg(regs[i]%5))
				want += 3
				c.Allocate(cu, int32(i), int32(i%16), in, offOf(i%16), false)
				i++
			}
			c.Tick(func(cu *CollectorUnit) bool { return true })
			if i == len(regs) && c.Drained() {
				break
			}
		}
		return c.Drained() && st.RegReads == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: each bank port grants at most one access per cycle — per
// Tick, reads <= banks and writes <= banks (1R+1W dual-ported banks).
func TestOneGrantPerPortProperty(t *testing.T) {
	st := &stats.SubCore{}
	c := NewCollector(4, 2, 0, st)
	var prevReads, prevWrites int64
	for cyc := 0; cyc < 200; cyc++ {
		if cu := c.FreeCU(); cu != -1 {
			c.Allocate(cu, int32(cyc), int32(cyc%16), isa.MakeFMA(4, 1, 2, 3), offOf(cyc%16), false)
		}
		if cyc%3 == 0 {
			c.EnqueueWrite(WriteReq{WarpIdx: int32(cyc), Reg: 1, Bank: int8(cyc % 2)})
		}
		c.Tick(func(cu *CollectorUnit) bool { return true })
		reads := st.RegReads - prevReads
		writes := st.RegWrites - prevWrites
		if reads > 2 {
			t.Fatalf("cycle %d granted %d reads on 2 banks", cyc, reads)
		}
		if writes > 2 {
			t.Fatalf("cycle %d granted %d writes on 2 banks", cyc, writes)
		}
		prevReads, prevWrites = st.RegReads, st.RegWrites
	}
}

// TestDelayedQueueLenAnyRing defines the tap on every ring: delay d reads
// the length recorded d-1 ticks before the last one, a delay past the ring
// reads its oldest slot, and without a ring (scoreDelay 0: nothing was ever
// going to ask) every delay reads the live length. The ring-less column is
// the collector benchmark/internal/drivers builds; DelayedQueueLen(0, 1)
// on it used to index past a one-slot ring.
func TestDelayedQueueLenAnyRing(t *testing.T) {
	for _, ring := range []int{0, 1, 3} {
		c := NewCollector(6, 1, ring, nil)
		for i := 0; i < 6; i++ {
			c.Allocate(i, int32(i), int32(i), isa.Make1(isa.OpMOV, 4, 0), 0, false)
		}
		var seen []int // queue length at the end of each tick
		for i := 0; i < 4; i++ {
			c.Tick(func(*CollectorUnit) bool { return true })
			seen = append(seen, c.QueueLen(0))
		}
		for delay := 0; delay <= 5; delay++ {
			want := c.QueueLen(0)
			if d := min(delay, ring); d > 0 {
				want = seen[len(seen)-d]
			}
			if got := c.DelayedQueueLen(0, delay); got != want {
				t.Errorf("ring %d, delay %d: read %d, want %d (lengths per tick %v)", ring, delay, got, want, seen)
			}
		}
	}
}

// TestRingIsInert feeds a ring-less collector and a ring-carrying one the
// same random stream — allocations (some stolen, some converted later),
// writebacks, a dispatch port that refuses memory ops now and then, idle
// stretches fast-forwarded — and requires them to agree on everything but
// the delayed tap: grants, dispatch order, conflicts, queue lengths, drain.
func TestRingIsInert(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type side struct {
		c    *Collector
		st   stats.SubCore
		log  []string
		deny bool
	}
	var bare, ringed side
	bare.c = NewCollector(4, 2, 0, &bare.st)
	ringed.c = NewCollector(4, 2, 5, &ringed.st)
	sides := []*side{&bare, &ringed}
	stolen := -1 // the unit holding a stolen pre-allocation, if any
	for cyc := 0; cyc < 4000; cyc++ {
		alloc, steal, write, deny := rng.Intn(3) > 0, rng.Intn(4) == 0, rng.Intn(3) == 0, rng.Intn(5) == 0
		reg, convert := isa.Reg(rng.Intn(16)), rng.Intn(6) == 0
		idle := int64(rng.Intn(40))
		steal = steal && stolen < 0
		nextStolen := stolen
		for _, s := range sides {
			c := s.c
			if convert && stolen >= 0 {
				c.Unsteal(stolen)
				nextStolen = -1
			}
			if cu := c.FreeCU(); alloc && cu >= 0 {
				in := isa.MakeFMA(4, reg, reg+1, reg+3)
				if cyc%5 == 0 {
					in = isa.MakeLoad(isa.OpLDG, 4, reg, isa.MemTrait{Pattern: isa.PatCoalesced})
				}
				c.Allocate(cu, int32(cyc), int32(cyc%16), in, cyc%2, steal)
				if steal {
					nextStolen = cu
				}
			}
			if write {
				c.EnqueueWrite(WriteReq{WarpIdx: int32(cyc), Reg: reg, Bank: int8(cyc % 2)})
			}
			s.deny = deny
			c.Tick(func(u *CollectorUnit) bool {
				if u.Stolen || s.deny && u.Instr.Op.UnitOf() == isa.ClassMEM {
					return false
				}
				s.log = append(s.log, fmt.Sprintf("%d:d%d", cyc, u.WarpIdx))
				return true
			})
			for _, w := range c.GrantedWrites() {
				s.log = append(s.log, fmt.Sprintf("%d:w%d", cyc, w.WarpIdx))
			}
			if c.NextEvent(c.Cycle()) > c.Cycle() && idle > 0 {
				c.FastForward(idle)
			}
			if vs := c.Audit("t"); len(vs) != 0 {
				t.Fatalf("cycle %d: %v", cyc, vs)
			}
		}
		stolen = nextStolen
		a, b := bare.c, ringed.c
		if !slices.Equal(bare.log, ringed.log) {
			t.Fatalf("cycle %d: grant/dispatch streams diverge:\nno ring: %v\nring:    %v", cyc, bare.log, ringed.log)
		}
		if bare.st != ringed.st || a.Cycle() != b.Cycle() || a.Drained() != b.Drained() ||
			a.QueueLen(0) != b.QueueLen(0) || a.QueueLen(1) != b.QueueLen(1) {
			t.Fatalf("cycle %d: the ring changed the collector: stats %+v vs %+v, clock %d vs %d, drained %t vs %t",
				cyc, bare.st, ringed.st, a.Cycle(), b.Cycle(), a.Drained(), b.Drained())
		}
		bare.log, ringed.log = bare.log[:0], ringed.log[:0]
	}
	if bare.st.BankConflicts == 0 || bare.st.RegReads == 0 {
		t.Fatalf("the stream never contended: %+v", bare.st)
	}
}
