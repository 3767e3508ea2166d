// Package core implements the paper's two proposed mechanisms — the
// Register-Bank-Aware (RBA) warp scheduler (Section IV-A) and hashed
// sub-core warp assignment (Section IV-B) — and the baselines they are
// evaluated against (GTO and LRR, round robin), one type per mechanism as
// in hardware: a WarpScheduler is a comparator whose order the policy
// selects, an Assigner a table of sub-core ids read by a warp counter.
package core

import (
	"math/bits"

	"repro/internal/config"
	"repro/internal/isa"
)

// MaxSlots is the widest warp PC table a scheduler serves: its ready set is
// one 64-bit mask (config.Validate holds sub-cores to it).
const MaxSlots = 64

// MaxScore saturates the 5-bit RBA score. With 2 CUs of 3 operands a queue
// holds at most 6, so the baseline shape never reaches it.
const MaxScore = 1<<5 - 1

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

// WarpScheduler selects which ready warp issues each cycle; one exists per
// sub-core scheduler. Its policy orders the ready warps:
//
//   - GTO, greedy-then-oldest (Table II's baseline): the last issuer while
//     it stays ready, else the oldest ready warp.
//   - LRR, loose round-robin: the first ready slot one past the last
//     issuer, wrapping to the lowest.
//   - RBA, the paper's register-bank-aware order: the concatenated field
//     {RBA score, ~age} — the lowest score wins and ties go to the oldest
//     warp (Section IV-A, Fig. 6). RBA keeps no issue history.
type WarpScheduler struct {
	policy config.WarpSched
	// last is the slot that issued last under GTO or LRR; -1 when none has
	// since Reset (and always under RBA).
	last int
}

// NewWarpScheduler builds the scheduler for a policy.
func NewWarpScheduler(p config.WarpSched) WarpScheduler {
	return WarpScheduler{policy: p, last: -1}
}

// PickReady returns the slot to issue among the set bits of ready, or -1 if
// none is set — the comparator beside the ready bits (Fig. 6), and each
// policy's one definition of its order. age[s] is slot s's allocation order
// and score[s] its RBA score (read by RBA alone), both read under set bits
// only; a tie on every field goes to the lowest slot (resident warps never
// tie: ages are unique per SM).
func (s *WarpScheduler) PickReady(ready uint64, age *[MaxSlots]int64, score *[MaxSlots]uint8) int {
	best := -1
	switch s.policy {
	case config.SchedLRR:
		// A pointer at or beyond MaxSlots shifts the whole mask out: wrap.
		if ahead := ready &^ (1<<uint(s.last+1) - 1); ahead != 0 {
			return bits.TrailingZeros64(ahead)
		}
		if ready != 0 {
			return bits.TrailingZeros64(ready)
		}
	case config.SchedRBA:
		for m := ready; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m) & (MaxSlots - 1) // the mask spares the bounds checks
			if best < 0 || score[i] < score[best] || (score[i] == score[best] && age[i] < age[best]) {
				best = i
			}
		}
	default: // GTO
		if s.last >= 0 && ready>>uint(s.last)&1 != 0 {
			return s.last
		}
		for m := ready; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m) & (MaxSlots - 1)
			if best < 0 || age[i] < age[best] {
				best = i
			}
		}
	}
	return best
}

// Pick is PickReady over a candidate list, for the benchmark's core driver
// and the policy tests (the simulator passes masks): the index into cands
// of the warp to issue, or -1 if cands is empty.
func (s *WarpScheduler) Pick(cands []Candidate) int {
	var l candList
	return l.index(s.PickReady(l.load(cands)))
}

// NotifyIssued records that the warp in the given scheduler slot issued:
// GTO's greedy slot and LRR's rotation pointer.
func (s *WarpScheduler) NotifyIssued(slot int) {
	if s.policy != config.SchedRBA {
		s.last = slot
	}
}

// Reset clears issue history (new kernel).
func (s *WarpScheduler) Reset() { s.last = -1 }

// State packs the issue history into one word for snapshots; SetState
// restores it. GTO writes 0, or 1|last<<1 after an issue; LRR its rotation
// pointer last+1; RBA 0. A snapshot is only ever restored into the same
// policy (the config is checked first).
func (s *WarpScheduler) State() uint64 {
	switch {
	case s.policy == config.SchedLRR:
		return uint64(s.last + 1)
	case s.last < 0:
		return 0
	}
	return 1 | uint64(s.last)<<1
}

// SetState restores the word State wrote.
func (s *WarpScheduler) SetState(w uint64) {
	switch {
	case s.policy == config.SchedLRR:
		s.last = int(w) - 1
	case s.policy == config.SchedRBA || w&1 == 0:
		s.last = -1
	default:
		s.last = int(w >> 1)
	}
}

// candList spreads a candidate list into PickReady's arguments and maps the
// chosen slot back to its list index. It lives on the caller's stack: Pick
// calls PickReady directly, so nothing escapes.
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
