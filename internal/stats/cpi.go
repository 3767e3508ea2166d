package stats

import "fmt"

// CPIComponent is one slice of the top-down CPI stack: the taxonomy
// that attributes every sub-core cycle to exactly one cause. It is the
// Accel-Sim-style validation view of the paper's Fig. 1 decomposition —
// bank conflicts and issue imbalance become directly readable shares of
// total cycles instead of raw stall counters.
type CPIComponent uint8

const (
	// CPIIssue: at least one instruction issued this cycle.
	CPIIssue CPIComponent = iota
	// CPIBankConflict: no free collector unit while a bank read queue
	// was backlogged — the CUs are hostage to register-bank conflicts.
	CPIBankConflict
	// CPICUFull: structural back-end saturation with quiet banks: no
	// free collector unit, or every candidate's execution port busy.
	CPICUFull
	// CPIScoreboard: every candidate warp had a register hazard.
	CPIScoreboard
	// CPIMemory: blocked on the memory path — the LSU queue refused a
	// direct issue, or a collected memory instruction could not dispatch.
	CPIMemory
	// CPIBarrier: all candidate warps parked at a barrier while siblings
	// on other sub-cores still run.
	CPIBarrier
	// CPIImbalance: this sub-core had no issuable warp while the SM
	// still held work — the empty-sub-core cost of static partitioning
	// (the paper's second effect).
	CPIImbalance
	// CPIIdle: the whole SM held no resident warps.
	CPIIdle

	NumCPIComponents
)

var cpiNames = [NumCPIComponents]string{
	"issue", "bank-conflict", "cu-full", "scoreboard", "memory",
	"barrier", "imbalance", "idle",
}

// String names the component.
func (c CPIComponent) String() string {
	if int(c) < len(cpiNames) {
		return cpiNames[c]
	}
	return fmt.Sprintf("cpi(%d)", uint8(c))
}

// CPIStack is a per-component cycle attribution, indexed by
// CPIComponent. Total() equals the elapsed cycles of whatever it was
// accumulated over — exactly, by construction: the issue stage charges
// each cycle to precisely one bucket.
type CPIStack [NumCPIComponents]int64

// Total sums the stack.
func (s *CPIStack) Total() int64 {
	var t int64
	for _, v := range s {
		t += v
	}
	return t
}

// AddTo accumulates this stack into dst.
func (s *CPIStack) AddTo(dst *CPIStack) {
	for i, v := range s {
		dst[i] += v
	}
}

// Shares returns each component's fraction of the total (zeros for an
// empty stack).
func (s *CPIStack) Shares() [NumCPIComponents]float64 {
	var out [NumCPIComponents]float64
	t := s.Total()
	if t == 0 {
		return out
	}
	for i, v := range s {
		out[i] = float64(v) / float64(t)
	}
	return out
}

// CPI derives the sub-core's CPI stack from its counters. The refined
// counters (ConflictNoCU, MemNoCU, MemEUBusy, SMIdleCycles) are strict
// subsets of their StallCycles buckets, so the residuals are never
// negative and the stack total equals the cycles this sub-core's issue
// stage ran.
func (s *SubCore) CPI() CPIStack {
	var c CPIStack
	c[CPIIssue] = s.IssueCycles
	c[CPIBankConflict] = s.ConflictNoCU
	c[CPIMemory] = s.MemNoCU + s.MemEUBusy
	c[CPICUFull] = s.StallCycles[StallNoCU] - s.ConflictNoCU - s.MemNoCU +
		s.StallCycles[StallEUBusy] - s.MemEUBusy
	c[CPIScoreboard] = s.StallCycles[StallScoreboard]
	c[CPIBarrier] = s.StallCycles[StallBarrier]
	c[CPIImbalance] = s.StallCycles[StallNoWarp] - s.SMIdleCycles
	c[CPIIdle] = s.SMIdleCycles
	return c
}

// CPIStack sums the CPI stacks of every sub-core in the run. Its total
// is Cycles × (number of sub-cores across the device).
func (r *Run) CPIStack() CPIStack {
	var out CPIStack
	for i := range r.SMs {
		for j := range r.SMs[i].SubCores {
			st := r.SMs[i].SubCores[j].CPI()
			st.AddTo(&out)
		}
	}
	return out
}

// CheckCPI verifies the stack invariant for every SM × sub-core: the
// attributed cycles sum exactly to the run's total cycles, and no
// component is negative. It returns the first violation found, nil when
// the invariant holds. Tests and the determinism suite call this after
// every run.
func (r *Run) CheckCPI() error {
	for i := range r.SMs {
		for j := range r.SMs[i].SubCores {
			st := r.SMs[i].SubCores[j].CPI()
			for c, v := range st {
				if v < 0 {
					return fmt.Errorf("stats: SM %d sub-core %d: negative %s cycles %d",
						i, j, CPIComponent(c), v)
				}
			}
			if t := st.Total(); t != r.Cycles {
				return fmt.Errorf("stats: SM %d sub-core %d: CPI stack sums to %d, run has %d cycles",
					i, j, t, r.Cycles)
			}
		}
	}
	return nil
}
