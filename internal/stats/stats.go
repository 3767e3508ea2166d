// Package stats collects the measurements the paper's figures are built
// from: per-sub-core issue counts (Fig 17's coefficient of variation),
// register-file reads per cycle (Fig 14's utilization traces), bank
// conflict and stall breakdowns, and whole-run cycle/instruction totals.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// StallReason classifies why a sub-core scheduler failed to issue in a
// cycle. The breakdown identifies which of the paper's four sub-division
// effects dominates an application.
type StallReason uint8

const (
	// StallNone: an instruction issued.
	StallNone StallReason = iota
	// StallNoWarp: no resident warp had a decoded instruction (empty,
	// finished, or waiting at a barrier). Sub-core issue imbalance shows
	// up here.
	StallNoWarp
	// StallScoreboard: every candidate had a register hazard.
	StallScoreboard
	// StallNoCU: no free collector unit — the read-operand stage is
	// backed up (bank conflicts).
	StallNoCU
	// StallEUBusy: the target execution unit could not accept.
	StallEUBusy
	// StallBarrier: all candidate warps were parked at a barrier while
	// siblings on other sub-cores still run (inter-warp divergence).
	StallBarrier

	NumStallReasons
)

var stallNames = [NumStallReasons]string{
	"issued", "no-warp", "scoreboard", "no-cu", "eu-busy", "barrier",
}

// String names the reason.
func (s StallReason) String() string {
	if int(s) < len(stallNames) {
		return stallNames[s]
	}
	return fmt.Sprintf("stall(%d)", uint8(s))
}

// SubCore holds per-sub-core counters within one SM.
type SubCore struct {
	// Issued is the number of instructions issued by this sub-core's
	// scheduler(s) — the quantity Fig 17 computes CoV over.
	Issued int64
	// Cycles this sub-core was active (SM active cycles).
	Cycles int64
	// StallCycles[r] counts cycles lost to each reason.
	StallCycles [NumStallReasons]int64
	// BankConflicts sums, over every bank grant, the requests left waiting
	// behind it in that bank's queue: request wait-cycles, not requests —
	// one read that waits three cycles counts three.
	BankConflicts int64
	// RegReads counts 32-wide register reads granted.
	RegReads int64
	// RegWrites counts writebacks.
	RegWrites int64
	// IdleAllFinished counts cycles where every resident warp had exited
	// but the block had not yet been released (the static-assignment
	// pathology of Section III-B).
	IdleAllFinished int64

	// The remaining counters refine the stall taxonomy into the top-down
	// CPI stack (cpi.go). Each is a strict subset of one StallCycles
	// bucket, carved out at attribution time by the issue stage, so the
	// stack's components always sum exactly to total cycles.

	// IssueCycles counts cycles in which this sub-core issued at least
	// one instruction (the complement of all StallCycles buckets).
	IssueCycles int64
	// ConflictNoCU is the subset of StallCycles[StallNoCU] where a bank
	// read queue was backlogged — collector units held hostage by bank
	// conflicts, the paper's first partitioning effect.
	ConflictNoCU int64
	// MemNoCU is the subset of StallCycles[StallNoCU] where the banks
	// were quiet but a collected memory instruction could not dispatch —
	// LSU backpressure surfacing as CU exhaustion.
	MemNoCU int64
	// MemEUBusy is the subset of StallCycles[StallEUBusy] where the
	// blocked port was the memory path (direct issue into a full LSU).
	MemEUBusy int64
	// SMIdleCycles is the subset of StallCycles[StallNoWarp] where the
	// whole SM held no resident warps — true idleness, as opposed to
	// this sub-core sitting empty while siblings still run (imbalance).
	SMIdleCycles int64
}

// SM aggregates an SM's sub-cores plus SM-level memory counters.
type SM struct {
	SubCores []SubCore `snap:"fixed"`
	// BlocksCompleted counts thread blocks retired by this SM.
	BlocksCompleted int64
	// L1Hits, L1Misses count data-cache outcomes.
	L1Hits, L1Misses int64
	// SharedConflicts counts extra scratchpad cycles from bank conflicts.
	SharedConflicts int64
	// AssignFallbacks counts warps whose designated sub-core was full so
	// placement fell back to the least-loaded sub-core.
	AssignFallbacks int64
}

// KernelStats records one kernel launch within a run.
type KernelStats struct {
	// Name is the kernel label.
	Name string
	// Cycles the launch took (wall cycles, not summed over SMs).
	Cycles int64
	// Instructions issued during the launch.
	Instructions int64
}

// Run is the result of simulating one application on one configuration.
type Run struct {
	// Cycles is total GPU cycles to completion.
	Cycles int64
	// Instructions is total warp instructions issued.
	Instructions int64
	SMs          []SM `snap:"fixed"`
	// Kernels breaks the run down per kernel launch.
	Kernels []KernelStats
	// OccupancySamples/OccupancySum track mean resident warps per SM,
	// sampled every cycle on every SM (one sample per SM per cycle).
	OccupancySum     int64
	OccupancySamples int64
}

// MeanOccupancy returns the average resident warps per SM, over all SMs
// and all cycles.
func (r *Run) MeanOccupancy() float64 {
	if r.OccupancySamples == 0 {
		return 0
	}
	return float64(r.OccupancySum) / float64(r.OccupancySamples)
}

// NewRun sizes a Run for an SM/sub-core topology.
func NewRun(numSMs, subCoresPerSM int) *Run {
	r := &Run{SMs: make([]SM, numSMs)}
	for i := range r.SMs {
		r.SMs[i].SubCores = make([]SubCore, subCoresPerSM)
	}
	return r
}

// IPC returns instructions per cycle for the whole GPU.
func (r *Run) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// IssueCoV returns the mean over SMs of the coefficient of variation of
// instructions issued per sub-core — Fig 17's metric. SMs that issued
// nothing are skipped.
func (r *Run) IssueCoV() float64 {
	var sum float64
	var n int
	for i := range r.SMs {
		subs := r.SMs[i].SubCores
		if len(subs) == 0 {
			continue
		}
		// Population stddev / mean over the per-sub-core counts, streamed
		// without building a slice — this accessor rides report loops over
		// full sweep matrices.
		var total int64
		for j := range subs {
			total += subs[j].Issued
		}
		if total == 0 {
			continue
		}
		mean := float64(total) / float64(len(subs))
		var ss float64
		for j := range subs {
			d := float64(subs[j].Issued) - mean
			ss += d * d
		}
		sum += math.Sqrt(ss/float64(len(subs))) / mean
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// TotalBankConflicts sums register bank conflicts across the GPU.
func (r *Run) TotalBankConflicts() int64 {
	var t int64
	for i := range r.SMs {
		for j := range r.SMs[i].SubCores {
			t += r.SMs[i].SubCores[j].BankConflicts
		}
	}
	return t
}

// TotalRegReads sums granted register reads across the GPU.
func (r *Run) TotalRegReads() int64 {
	var t int64
	for i := range r.SMs {
		for j := range r.SMs[i].SubCores {
			t += r.SMs[i].SubCores[j].RegReads
		}
	}
	return t
}

// GeoMean returns the geometric mean of positive finite values; values
// <= 0, NaN, and ±Inf are skipped (speedup tables never contain them).
func GeoMean(vals []float64) float64 {
	var s float64
	var n int
	for _, v := range vals {
		if v > 0 && isFinite(v) {
			s += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(s / float64(n))
}

// isFinite reports v is neither NaN nor ±Inf.
func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// Mean returns the arithmetic mean, 0 for empty input.
func Mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// Percentile returns the p-th percentile (0..100) by nearest-rank on a
// copy of vals. NaN values are dropped before ranking (sort.Float64s
// leaves them in unspecified positions, which would make the rank
// nondeterministic); 0 on empty input or when every value is NaN. A NaN
// p is treated as 0 (the minimum).
func Percentile(vals []float64, p float64) float64 {
	cp := make([]float64, 0, len(vals))
	for _, v := range vals {
		if !math.IsNaN(v) {
			cp = append(cp, v)
		}
	}
	if len(cp) == 0 {
		return 0
	}
	sort.Float64s(cp)
	if p <= 0 || math.IsNaN(p) {
		return cp[0]
	}
	if p >= 100 {
		return cp[len(cp)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(cp)))) - 1
	if rank < 0 {
		rank = 0
	}
	return cp[rank]
}
