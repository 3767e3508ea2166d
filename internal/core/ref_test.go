package core

import (
	"math/bits"
	"math/rand"

	"repro/internal/config"
)

// This file keeps the six policy types the package had before each
// mechanism became one type — two interfaces, three schedulers, three
// assigners — copied unchanged but for the interface and constructor names
// (and MaxScore, which the package still defines).
// They are the reference TestWarpSchedulerMatchesReference and
// TestAssignerMatchesReference hold WarpScheduler and Assigner to.

// refWarpScheduler selects which ready warp issues each cycle. Implementations
// hold only per-scheduler state (one instance per sub-core scheduler).
type refWarpScheduler interface {
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

// newRefWarpScheduler builds the scheduler for a policy.
func newRefWarpScheduler(p config.WarpSched) refWarpScheduler {
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

// rngFor derives a deterministic per-SM random stream.
func rngFor(seed int64, smID int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(smID)*7919 + 12345))
}

// refAssigner decides which sub-core each warp lands on as thread blocks are
// allocated to an SM (Section IV-B). One Assigner instance exists per SM;
// assignment happens once per warp lifetime and is never revisited — the
// property that makes pathological imbalance possible under round robin.
type refAssigner interface {
	// Name returns the figure label for the policy.
	Name() string
	// Next returns the sub-core index for the next warp allocated on this
	// SM and advances the internal warp counter W.
	Next() int
	// Reset restarts the sequence (new kernel).
	Reset()
	// State returns the internal warp counter W for snapshots; SetState
	// restores it. The Shuffle table is derived from (seed, smID) at
	// construction and is not part of the state word.
	State() uint64
	SetState(uint64)
}

// newRefAssigner builds the assigner for an SM. subCores is the partitioning
// degree N; tableEntries sizes the Shuffle hash table (4 or 16, each entry
// encoding 4 assignments); seed+smID derandomizes Shuffle per SM.
func newRefAssigner(p config.Assign, subCores, tableEntries int, seed int64, smID int) refAssigner {
	switch p {
	case config.AssignSRR:
		return &SRR{n: subCores}
	case config.AssignShuffle:
		return newRefShuffle(subCores, tableEntries, seed, smID)
	default:
		return &RoundRobin{n: subCores}
	}
}

// RoundRobin is the baseline hardware policy (established by the paper's
// microbenchmarking of Volta and Ampere): warp W goes to sub-core W mod N.
// Implemented in hardware as a 4:1 multiplexer driven by a 2-bit
// up-counter.
type RoundRobin struct {
	n int
	w int
}

// Name implements Assigner.
func (r *RoundRobin) Name() string { return "RR" }

// Next implements Assigner.
func (r *RoundRobin) Next() int {
	sc := r.w % r.n
	r.w++
	return sc
}

// Reset implements Assigner.
func (r *RoundRobin) Reset() { r.w = 0 }

// State implements Assigner.
func (r *RoundRobin) State() uint64 { return uint64(r.w) }

// SetState implements Assigner.
func (r *RoundRobin) SetState(s uint64) { r.w = int(s) }

// SRR is the paper's skewed round robin hash (Equation 1):
//
//	subcoreID = (W + floor(W/N)) mod N
//
// keeping per-sub-core warp counts even while rotating the phase by one
// every N warps, so a "long warp every N warps" pattern (TPC-H) spreads
// across sub-cores instead of landing on one.
type SRR struct {
	n int
	w int
}

// Name implements Assigner.
func (s *SRR) Name() string { return "SRR" }

// Next implements Assigner.
func (s *SRR) Next() int {
	sc := (s.w + s.w/s.n) % s.n
	s.w++
	return sc
}

// Reset implements Assigner.
func (s *SRR) Reset() { s.w = 0 }

// State implements Assigner.
func (s *SRR) State() uint64 { return uint64(s.w) }

// SetState implements Assigner.
func (s *SRR) SetState(st uint64) { s.w = int(st) }

// Shuffle randomly permutes each group of N consecutive warps across the N
// sub-cores, guaranteeing per-sub-core counts never differ by more than
// one, while decorrelating sub-core choice from warpID. The hardware holds
// the permutations in a small hash-function table whose entries each
// encode 4 assignments; a 4-entry table repeats its pattern every 16
// warps, a 16-entry table every 64 (Section IV-B3).
type Shuffle struct {
	n     int
	table []uint8 // tableEntries*4 assignments, precomputed
	w     int
}

// newRefShuffle builds a Shuffle assigner with a tableEntries-entry hash
// table, filled with random balanced permutations derived from (seed,
// smID).
func newRefShuffle(subCores, tableEntries int, seed int64, smID int) *Shuffle {
	if tableEntries < 1 {
		tableEntries = 4
	}
	s := &Shuffle{n: subCores}
	rng := rngFor(seed, smID)
	slots := tableEntries * 4
	for len(s.table) < slots {
		perm := rng.Perm(subCores)
		for _, p := range perm {
			s.table = append(s.table, uint8(p))
		}
	}
	// When N divides the table size (all shipping shapes: N in {1,2,4},
	// table sizes 16/64) the table is a whole number of permutations and
	// any prefix of the wrapped sequence stays balanced to +/-1. A
	// truncated trailing group (N=3 etc.) keeps the prefix-of-permutation
	// property, which is still within +/-1 per group.
	s.table = s.table[:slots]
	return s
}

// Name implements Assigner.
func (s *Shuffle) Name() string { return "Shuffle" }

// Next implements Assigner.
func (s *Shuffle) Next() int {
	sc := int(s.table[s.w%len(s.table)])
	s.w++
	return sc
}

// Reset implements Assigner.
func (s *Shuffle) Reset() { s.w = 0 }

// State implements Assigner.
func (s *Shuffle) State() uint64 { return uint64(s.w) }

// SetState implements Assigner.
func (s *Shuffle) SetState(st uint64) { s.w = int(st) }
