package core

import (
	"fmt"
	"math/rand"

	"repro/internal/config"
)

// Assigner decides which sub-core each warp lands on as thread blocks are
// allocated to an SM (Section IV-B). One Assigner exists per SM;
// assignment happens once per warp lifetime and is never revisited — the
// property that makes pathological imbalance possible under round robin.
//
// Every policy is the same hardware: a warp counter W indexing a table of
// sub-core ids, wrapping at its end (the paper's "small hash-function
// table" in place of round robin's multiplexer). Only NewAssigner's fill
// tells the policies apart.
type Assigner struct {
	table []uint8
	w     int
}

// NewAssigner builds the assigner for an SM. subCores is the partitioning
// degree N; tableEntries sizes the Shuffle hash table (4 or 16, each entry
// encoding 4 assignments); seed+smID derandomizes Shuffle per SM. The
// table, per policy:
//
//   - RR, the baseline the paper measured on Volta and Ampere: warp W goes
//     to sub-core W mod N, the table [0, N).
//   - SRR, the paper's skewed round robin (Equation 1): (W + ⌊W/N⌋) mod N,
//     even per-sub-core counts with the phase rotated every N warps, so a
//     "long warp every N warps" pattern (TPC-H) spreads across sub-cores.
//     It has period N² — for W = qN² + r it is the value at r.
//   - Shuffle: a random permutation of the N sub-cores per group of N
//     warps, counts within one but decorrelated from warpID. A 4-entry
//     table repeats every 16 warps, a 16-entry one every 64 (IV-B3).
func NewAssigner(p config.Assign, subCores, tableEntries int, seed int64, smID int) Assigner {
	if subCores < 1 {
		panic(fmt.Sprintf("core: assigner needs >= 1 sub-core, got %d", subCores))
	}
	var t []uint8
	switch p {
	case config.AssignSRR:
		t = make([]uint8, subCores*subCores)
		for w := range t {
			t[w] = uint8((w + w/subCores) % subCores)
		}
	case config.AssignShuffle:
		slots := tableEntries * 4
		rng := rand.New(rand.NewSource(seed*1000003 + int64(smID)*7919 + 12345))
		t = make([]uint8, 0, slots+subCores)
		for len(t) < slots {
			for _, sc := range rng.Perm(subCores) {
				t = append(t, uint8(sc))
			}
		}
		// Whole permutations when N divides the table (every shipping shape);
		// a truncated last group (N=3 etc.) is still within +/-1.
		t = t[:slots]
	default:
		t = make([]uint8, subCores)
		for w := range t {
			t[w] = uint8(w)
		}
	}
	return Assigner{table: t}
}

// Next returns the sub-core index for the next warp allocated on this SM
// and advances the warp counter W.
func (a *Assigner) Next() int {
	sc := int(a.table[a.w%len(a.table)])
	a.w++
	return sc
}

// Reset restarts the sequence (new kernel).
func (a *Assigner) Reset() { a.w = 0 }

// State returns the warp counter W for snapshots; SetState restores it.
// The table is derived from the config (and, for Shuffle, from seed and
// smID) at construction and is not part of the state word.
func (a *Assigner) State() uint64 { return uint64(a.w) }

// SetState restores the warp counter State returned.
func (a *Assigner) SetState(w uint64) { a.w = int(w) }
