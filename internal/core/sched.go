// Package core implements the paper's two proposed mechanisms — the
// Register-Bank-Aware (RBA) warp scheduler (Section IV-A) and hashed
// sub-core warp assignment (Section IV-B) — together with the baseline
// policies they are evaluated against (GTO and LRR warp scheduling,
// round-robin sub-core assignment).
package core

import (
	"math/bits"
	"math/rand"

	"repro/internal/config"
	"repro/internal/isa"
)

// MaxSlots is the widest warp PC table a scheduler serves: its ready set is
// one 64-bit mask (config.Validate holds sub-cores to it).
const MaxSlots = 64

// Candidate is a ready warp instruction presented to the warp scheduler:
// decoded, free of scoreboard hazards, and not parked at a barrier.
type Candidate struct {
	// Slot is the warp's slot in this scheduler's warp PC table, in
	// [0, MaxSlots) and distinct within one candidate list.
	Slot int
	// Age orders warps by allocation time (smaller = older). GTO and RBA
	// break ties oldest-first.
	Age int64
	// Score is the RBA score — the summed (possibly delayed) arbiter
	// queue lengths of the banks holding the instruction's source
	// operands, saturated to 5 bits. Ignored by GTO and LRR.
	Score int
}

// WarpScheduler selects which ready warp issues each cycle. Implementations
// hold only per-scheduler state (one instance per sub-core scheduler).
type WarpScheduler interface {
	// Name returns the figure label for the policy.
	Name() string
	// PickReady returns the slot to issue among the set bits of ready, or
	// -1 if none is set — the comparator beside the ready bits (Fig. 6),
	// and each policy's one definition of its order. age[s] is slot s's
	// allocation order and score[s] its RBA score (read by RBA alone), both
	// read under set bits only; a tie on every field goes to the lowest
	// slot (resident warps never tie: ages are unique per SM).
	PickReady(ready uint64, age *[MaxSlots]int64, score *[MaxSlots]uint8) int
	// Pick is PickReady over a candidate list, for the benchmark's core
	// driver and the policy tests (the simulator passes masks): the index
	// into cands of the warp to issue, or -1 if cands is empty.
	Pick(cands []Candidate) int
	// NotifyIssued records that the warp in the given scheduler slot
	// issued, for policies with issue history (GTO's greedy slot, LRR's
	// rotation pointer).
	NotifyIssued(slot int)
	// Reset clears issue history (new kernel).
	Reset()
	// State packs the policy's issue history into one word for snapshots;
	// SetState restores it. Stateless policies return 0 and ignore
	// SetState. The word layouts are policy-private — a snapshot is only
	// ever restored into the same policy (the config is checked first).
	State() uint64
	SetState(uint64)
}

// NewWarpScheduler builds the scheduler for a policy.
func NewWarpScheduler(p config.WarpSched) WarpScheduler {
	switch p {
	case config.SchedLRR:
		return &LRR{}
	case config.SchedRBA:
		return &RBA{}
	default:
		return &GTO{}
	}
}

// GTO is greedy-then-oldest: keep issuing the last warp while it stays
// ready; otherwise fall back to the oldest ready warp. This is the
// baseline warp scheduler in Table II.
type GTO struct {
	last     int
	haveLast bool
}

// Name implements WarpScheduler.
func (g *GTO) Name() string { return "GTO" }

// PickReady implements WarpScheduler.
func (g *GTO) PickReady(ready uint64, age *[MaxSlots]int64, _ *[MaxSlots]uint8) int {
	if g.haveLast && ready>>uint(g.last)&1 != 0 {
		return g.last
	}
	best := -1
	for m := ready; m != 0; m &= m - 1 {
		s := bits.TrailingZeros64(m) & (MaxSlots - 1) // the mask spares the bounds checks
		if best < 0 || age[s] < age[best] {
			best = s
		}
	}
	return best
}

// Pick implements WarpScheduler.
func (g *GTO) Pick(cands []Candidate) int {
	var l candList
	return l.index(g.PickReady(l.load(cands)))
}

// NotifyIssued implements WarpScheduler.
func (g *GTO) NotifyIssued(slot int) { g.last, g.haveLast = slot, true }

// Reset implements WarpScheduler.
func (g *GTO) Reset() { g.haveLast = false }

// State implements WarpScheduler: bit 0 is haveLast, the rest hold the
// greedy slot.
func (g *GTO) State() uint64 {
	if !g.haveLast {
		return 0
	}
	return 1 | uint64(g.last)<<1
}

// SetState implements WarpScheduler.
func (g *GTO) SetState(s uint64) {
	g.haveLast = s&1 != 0
	g.last = int(s >> 1)
}

// LRR is loose round-robin: rotate priority one past the last issued slot.
type LRR struct {
	next int
}

// Name implements WarpScheduler.
func (l *LRR) Name() string { return "LRR" }

// PickReady implements WarpScheduler: the first ready slot at or past the
// rotation pointer, else — the pointer has passed them all — the lowest.
func (l *LRR) PickReady(ready uint64, _ *[MaxSlots]int64, _ *[MaxSlots]uint8) int {
	if ready == 0 {
		return -1
	}
	// A pointer at or beyond MaxSlots shifts the whole mask out: wrap.
	if ahead := ready &^ (1<<uint(l.next) - 1); ahead != 0 {
		return bits.TrailingZeros64(ahead)
	}
	return bits.TrailingZeros64(ready)
}

// Pick implements WarpScheduler.
func (l *LRR) Pick(cands []Candidate) int {
	var cl candList
	return cl.index(l.PickReady(cl.load(cands)))
}

// NotifyIssued implements WarpScheduler.
func (l *LRR) NotifyIssued(slot int) { l.next = slot + 1 }

// Reset implements WarpScheduler.
func (l *LRR) Reset() { l.next = 0 }

// State implements WarpScheduler: the rotation pointer.
func (l *LRR) State() uint64 { return uint64(l.next) }

// SetState implements WarpScheduler.
func (l *LRR) SetState(s uint64) { l.next = int(s) }

// RBA is the paper's register-bank-aware scheduler. The warp selection
// logic compares candidates on the concatenated field {RBA score, ~age}:
// the lowest score wins and ties go to the oldest warp — replacing GTO's
// greedy-then-oldest ordering (Section IV-A, Fig. 6).
type RBA struct{}

// ScoreBits is the width of the stored RBA score; scores saturate at
// (1<<ScoreBits)-1 = 31. With 2 CUs and 3 operands per CU the maximum
// queue length is 6, so 5 bits never saturates in the baseline shape.
const ScoreBits = 5

// MaxScore is the saturation value of the RBA score.
const MaxScore = 1<<ScoreBits - 1

// Name implements WarpScheduler.
func (r *RBA) Name() string { return "RBA" }

// PickReady implements WarpScheduler.
func (r *RBA) PickReady(ready uint64, age *[MaxSlots]int64, score *[MaxSlots]uint8) int {
	best := -1
	for m := ready; m != 0; m &= m - 1 {
		s := bits.TrailingZeros64(m) & (MaxSlots - 1)
		if best < 0 || score[s] < score[best] || (score[s] == score[best] && age[s] < age[best]) {
			best = s
		}
	}
	return best
}

// Pick implements WarpScheduler.
func (r *RBA) Pick(cands []Candidate) int {
	var l candList
	return l.index(r.PickReady(l.load(cands)))
}

// NotifyIssued implements WarpScheduler.
func (r *RBA) NotifyIssued(int) {}

// Reset implements WarpScheduler.
func (r *RBA) Reset() {}

// State implements WarpScheduler; RBA keeps no issue history.
func (r *RBA) State() uint64 { return 0 }

// SetState implements WarpScheduler.
func (r *RBA) SetState(uint64) {}

// candList spreads a candidate list into PickReady's arguments and maps the
// chosen slot back to its list index. It lives on the caller's stack: every
// Pick calls its own policy's PickReady directly, so nothing escapes.
type candList struct {
	ready uint64
	age   [MaxSlots]int64
	score [MaxSlots]uint8
	at    [MaxSlots]uint8
}

func (l *candList) load(cands []Candidate) (uint64, *[MaxSlots]int64, *[MaxSlots]uint8) {
	for i, c := range cands {
		l.ready |= 1 << uint(c.Slot)
		l.age[c.Slot] = c.Age
		l.score[c.Slot] = uint8(min(c.Score, MaxScore))
		l.at[c.Slot] = uint8(i)
	}
	return l.ready, &l.age, &l.score
}

func (l *candList) index(slot int) int {
	if slot < 0 {
		return -1
	}
	return int(l.at[slot])
}

// Score computes an instruction's RBA score: for each source operand, add
// the length of the request queue of the bank the operand resides in
// (an instruction with two operands in the same bank counts that queue
// twice). queueLen is the arbiter tap, possibly delayed per the
// score-update-latency study. The result saturates to 5 bits.
func Score(in *isa.Instr, bankOf func(isa.Reg) int, queueLen func(bank int) int) int {
	s := 0
	for _, src := range in.Srcs {
		if !src.Valid() {
			continue
		}
		s += queueLen(bankOf(src))
		if s >= MaxScore {
			return MaxScore
		}
	}
	return s
}

// rngFor derives a deterministic per-SM random stream.
func rngFor(seed int64, smID int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(smID)*7919 + 12345))
}
