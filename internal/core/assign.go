package core

import (
	"fmt"

	"repro/internal/config"
)

// Assigner decides which sub-core each warp lands on as thread blocks are
// allocated to an SM (Section IV-B). One Assigner instance exists per SM;
// assignment happens once per warp lifetime and is never revisited — the
// property that makes pathological imbalance possible under round robin.
type Assigner interface {
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

// NewAssigner builds the assigner for an SM. subCores is the partitioning
// degree N; tableEntries sizes the Shuffle hash table (4 or 16, each entry
// encoding 4 assignments); seed+smID derandomizes Shuffle per SM.
func NewAssigner(p config.Assign, subCores, tableEntries int, seed int64, smID int) Assigner {
	if subCores < 1 {
		panic(fmt.Sprintf("core: assigner needs >= 1 sub-core, got %d", subCores))
	}
	switch p {
	case config.AssignSRR:
		return &SRR{n: subCores}
	case config.AssignShuffle:
		return NewShuffle(subCores, tableEntries, seed, smID)
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

// NewShuffle builds a Shuffle assigner with a tableEntries-entry hash
// table, filled with random balanced permutations derived from (seed,
// smID).
func NewShuffle(subCores, tableEntries int, seed int64, smID int) *Shuffle {
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
