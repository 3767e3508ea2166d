// Package config defines the simulated GPU's structural and policy
// parameters. The defaults reproduce Table II of the paper (the Accel-Sim
// Volta V100 configuration with 4 sub-cores per SM, 2 register-file banks
// and 2 collector units per sub-core).
//
// A GPU value is the machine: how a run is watched is set where the tracer
// is built (internal/trace), and the run mode is no part of Machine.
//
// # Design grammar
//
// Both binaries spell a design point the same way (design.go): an optional
// preset, then modifiers joined by "+", at most one of each row, any order.
//
//	preset    v100 (the default; also base)   Table II baseline
//	          fc                              fully-connected SM (Fig 1)
//	modifier  gto | lrr | rba                 warp scheduler
//	          rr | srr | shuffle              warp-to-sub-core assignment
//	          steal                           register bank stealing
//	          <N>cu                           collector units per sub-core
//	          <N>bank                         register banks per sub-core
//	          lat<N>                          RBA score-update latency, cycles
//
// So rba+4cu, fc+srr+steal and lat5+rba are designs; gto+rba, 2cu+4cu and
// rba+fc are errors. Each modifier calls the With* helper below it, so the
// Name a design prints is the one the helpers compose (V100+4SM+RBA+4CU).
package config

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
)

// WarpSched selects the per-sub-core warp scheduling policy.
type WarpSched uint8

const (
	// SchedGTO is greedy-then-oldest, the paper's baseline.
	SchedGTO WarpSched = iota
	// SchedLRR is loose round-robin.
	SchedLRR
	// SchedRBA is the paper's register-bank-aware scheduler: lowest
	// {RBA score, age-complement} wins.
	SchedRBA
)

// String returns the policy name used in figures.
func (w WarpSched) String() string {
	switch w {
	case SchedGTO:
		return "GTO"
	case SchedLRR:
		return "LRR"
	case SchedRBA:
		return "RBA"
	default:
		return fmt.Sprintf("WarpSched(%d)", uint8(w))
	}
}

// Assign selects the warp-to-sub-core assignment policy applied when a
// thread block is allocated onto an SM.
type Assign uint8

const (
	// AssignRR is the round-robin assignment contemporary hardware uses
	// (established by the paper's microbenchmarking), the baseline.
	AssignRR Assign = iota
	// AssignSRR is the paper's skewed round robin hash:
	// subcore = (W + floor(W/N)) mod N.
	AssignSRR
	// AssignShuffle is the paper's random shuffle hash: a random
	// permutation per group of N warps, balanced to within one warp.
	AssignShuffle
)

// String returns the policy name used in figures.
func (a Assign) String() string {
	switch a {
	case AssignRR:
		return "RR"
	case AssignSRR:
		return "SRR"
	case AssignShuffle:
		return "Shuffle"
	default:
		return fmt.Sprintf("Assign(%d)", uint8(a))
	}
}

// GPU holds every structural and policy parameter of a simulated GPU.
// Construct presets with VoltaV100 and derive variants with the With*
// helpers; Validate before use.
type GPU struct {
	// Name labels the configuration in reports.
	Name string

	// NumSMs is the number of streaming multiprocessors.
	NumSMs int
	// SubCoresPerSM is the partitioning degree (1 = monolithic/fully
	// connected, 4 = Volta/Ampere).
	SubCoresPerSM int
	// SchedulersPerSubCore is the number of warp instructions a sub-core
	// may issue per cycle. Partitioned sub-cores have 1; the hypothetical
	// fully-connected SM is modeled as 1 sub-core with 4 schedulers.
	SchedulersPerSubCore int
	// MaxWarpsPerSM caps resident warps (64 on Volta).
	MaxWarpsPerSM int
	// MaxBlocksPerSM caps resident thread blocks (32 on Volta).
	MaxBlocksPerSM int

	// RegFileKBPerSubCore is register-file capacity per sub-core (64 KB).
	RegFileKBPerSubCore int
	// BanksPerSubCore is the number of register-file banks a sub-core's
	// warps can place operands in (2 on Volta/Ampere; 8 fully connected).
	BanksPerSubCore int
	// CollectorUnitsPerSubCore is the operand-collector capacity (2 on
	// Volta; the CU-scaling study sweeps this).
	CollectorUnitsPerSubCore int
	// DispatchPortsPerSubCore caps how many collected instructions may
	// leave the operand collector for execution units per cycle (the
	// sub-core's result-bus width). CU scaling adds staging capacity but
	// not dispatch bandwidth, which is what bounds its returns.
	DispatchPortsPerSubCore int

	// FP32LanesPerSubCore, IntLanesPerSubCore, SFULanesPerSubCore size the
	// SIMD pipes (16/16/4 per Volta sub-core).
	FP32LanesPerSubCore int
	IntLanesPerSubCore  int
	SFULanesPerSubCore  int
	// TensorPerSubCore is the number of tensor-core issue ports.
	TensorPerSubCore int

	// SharedMemKBPerSM is scratchpad capacity (part of the 128 KB unified
	// L1/shared on Volta; we expose 96 KB as scratchpad).
	SharedMemKBPerSM int
	// SharedMemBanks is the scratchpad bank count (32).
	SharedMemBanks int
	// LSUQueue is the LSU input queue depth per SM.
	LSUQueue int

	// L1KBPerSM is L1 data cache capacity (remainder of the 128 KB
	// unified array).
	L1KBPerSM int
	// L1Assoc and LineBytes shape the caches.
	L1Assoc   int
	LineBytes int
	// L2KB and L2Assoc shape the shared L2 (6 MB, 24-way on V100).
	L2KB    int
	L2Assoc int
	// L2Latency is the round-trip from an SM to an L2 hit.
	L2Latency int
	// DRAMLatency is added on an L2 miss.
	DRAMLatency int
	// DRAMBytesPerCycle is aggregate DRAM bandwidth (HBM2 ~900 GB/s at
	// 1.4 GHz core clock ≈ 640 B/cycle).
	DRAMBytesPerCycle int
	// L2BytesPerCycle is aggregate L2 bandwidth.
	L2BytesPerCycle int

	// WarpScheduler is the per-sub-core issue policy.
	WarpScheduler WarpSched
	// SubCoreAssign is the warp→sub-core placement policy.
	SubCoreAssign Assign
	// RBAScoreLatency delays the bank-queue-length tap feeding RBA scores
	// by this many cycles (Section VI-B4 sweeps 0–20).
	RBAScoreLatency int
	// BankStealing enables the register bank stealing comparator [36]:
	// free collector units are pre-filled and read operands using only
	// otherwise-idle bank cycles.
	BankStealing bool
	// BankSwizzle selects a per-warp-slot scrambled register-to-bank
	// mapping instead of Volta's plain reg-mod-banks mapping; both presets
	// set it (regfile.SlotOffset).
	BankSwizzle bool
	// HashTableEntries sizes the hash-function table for Shuffle (each
	// entry encodes 4 warp assignments; 4 entries ⇒ the pattern repeats
	// every 16 warps, 16 ⇒ unique assignment for all 64 warps).
	HashTableEntries int

	// AuditEvery arms the runtime invariant auditor (internal/audit): the
	// run loop re-derives the device's conservation laws — scoreboard vs
	// in-flight writers, collector leases vs bank reservations, MSHR
	// bookkeeping, occupancy and register/scratchpad budgets, the CPI
	// stack — on the device's first heartbeat and then every AuditEvery
	// cycles of work, surfacing any violation as a structured
	// *gpu.AuditError instead of silent state corruption. A cycle of work
	// (gpu.WorkCycles) is one cycle of every sub-core awake: a device cycle
	// when nothing sleeps, a sixteenth of one when one sub-core of sixteen
	// ran, nothing while the device sleeps — so an audit is paced by what the
	// simulation costs the host, and a state nothing touched is not audited
	// twice. Audits run at heartbeat boundaries (every 1024 device cycles),
	// so the cadence rounds up to the next one. 0 disables auditing (the
	// production fast path). Auditing never mutates state: results are
	// byte-identical on or off, so the field is not part of Machine.
	AuditEvery int64

	// NoFastForward disables the run loop's idle-cycle fast-forward: the
	// event-driven skip over cycles in which no SM could issue, decode,
	// dispatch, or write back. Fast-forward is provably inert — results
	// are byte-identical either way (TestFastForwardInert) — so
	// the flag exists only as a debugging escape hatch and for
	// differential testing; leave it false for speed. Not part of Machine.
	NoFastForward bool

	// Seed drives every stochastic choice (shuffle permutations, random
	// memory patterns) so runs are reproducible.
	Seed int64
}

// FromJSON reads a configuration as JSON, starting from the VoltaV100
// defaults so files only need to name the fields they change, e.g.
//
//	{"NumSMs": 8, "WarpScheduler": 2, "BanksPerSubCore": 4}
//
// The result is validated.
func FromJSON(r io.Reader) (GPU, error) {
	g := VoltaV100()
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&g); err != nil {
		return GPU{}, fmt.Errorf("config: %w", err)
	}
	if err := g.Validate(); err != nil {
		return GPU{}, err
	}
	return g, nil
}

// VoltaV100 returns the paper's Table II baseline configuration.
func VoltaV100() GPU {
	return GPU{
		Name:                     "V100",
		NumSMs:                   80,
		SubCoresPerSM:            4,
		SchedulersPerSubCore:     1,
		MaxWarpsPerSM:            64,
		MaxBlocksPerSM:           32,
		RegFileKBPerSubCore:      64,
		BanksPerSubCore:          2,
		CollectorUnitsPerSubCore: 2,
		DispatchPortsPerSubCore:  2,
		FP32LanesPerSubCore:      16,
		IntLanesPerSubCore:       16,
		SFULanesPerSubCore:       4,
		TensorPerSubCore:         1,
		SharedMemKBPerSM:         96,
		SharedMemBanks:           32,
		LSUQueue:                 64,
		L1KBPerSM:                128,
		L1Assoc:                  4,
		LineBytes:                128,
		L2KB:                     6 * 1024,
		L2Assoc:                  24,
		L2Latency:                190,
		DRAMLatency:              220,
		DRAMBytesPerCycle:        640,
		L2BytesPerCycle:          1280,
		WarpScheduler:            SchedGTO,
		SubCoreAssign:            AssignRR,
		RBAScoreLatency:          0,
		BankStealing:             false,
		BankSwizzle:              true,
		HashTableEntries:         4,
		Seed:                     1,
	}
}

// FullyConnected returns the hypothetical monolithic SM of Figure 1: the
// same total thread, bank, collector-unit, and SIMD capacity as VoltaV100,
// but with no sub-core partitioning — every warp may use any of the SM's 8
// banks, 8 collector units, and all execution lanes, and 4 instructions
// issue per cycle.
func FullyConnected() GPU {
	g := VoltaV100()
	g.Name = "FullyConnected"
	g.SubCoresPerSM = 1
	g.SchedulersPerSubCore = 4
	g.RegFileKBPerSubCore = 4 * 64
	g.BanksPerSubCore = 8
	g.CollectorUnitsPerSubCore = 8
	g.DispatchPortsPerSubCore = 8
	g.FP32LanesPerSubCore = 64
	g.IntLanesPerSubCore = 64
	g.SFULanesPerSubCore = 16
	g.TensorPerSubCore = 4
	return g
}

// WithScheduler returns a copy with the warp scheduler replaced.
func (g GPU) WithScheduler(s WarpSched) GPU {
	g.WarpScheduler = s
	g.Name = g.Name + "+" + s.String()
	return g
}

// WithAssign returns a copy with the sub-core assignment policy replaced.
func (g GPU) WithAssign(a Assign) GPU {
	g.SubCoreAssign = a
	g.Name = g.Name + "+" + a.String()
	return g
}

// WithCUs returns a copy with the collector-unit count per sub-core set.
func (g GPU) WithCUs(n int) GPU {
	g.CollectorUnitsPerSubCore = n
	g.Name = fmt.Sprintf("%s+%dCU", g.Name, n)
	return g
}

// WithBanks returns a copy with the register bank count per sub-core set.
func (g GPU) WithBanks(n int) GPU {
	g.BanksPerSubCore = n
	g.Name = fmt.Sprintf("%s+%dbank", g.Name, n)
	return g
}

// WithSMs returns a copy with the SM count set.
func (g GPU) WithSMs(n int) GPU {
	g.NumSMs = n
	g.Name = fmt.Sprintf("%s+%dSM", g.Name, n)
	return g
}

// WithBankStealing returns a copy with bank stealing enabled.
func (g GPU) WithBankStealing() GPU {
	g.BankStealing = true
	g.Name = g.Name + "+steal"
	return g
}

// WithRBALatency returns a copy with the RBA score-update latency set.
func (g GPU) WithRBALatency(cycles int) GPU {
	g.RBAScoreLatency = cycles
	g.Name = fmt.Sprintf("%s+lat%d", g.Name, cycles)
	return g
}

// WithNoFastForward returns a copy with idle-cycle fast-forward disabled
// (the differential-testing escape hatch; results are byte-identical,
// only wall-clock changes). The Name is deliberately untouched: the
// configuration simulates the same machine.
func (g GPU) WithNoFastForward() GPU {
	g.NoFastForward = true
	return g
}

// WithAudit returns a copy with the runtime invariant auditor armed at
// the given cadence in cycles of work (AuditEvery; rounded up to heartbeat
// granularity at run time). The Name is deliberately untouched: auditing
// observes the same machine without perturbing it.
func (g GPU) WithAudit(everyCycles int64) GPU {
	g.AuditEvery = everyCycles
	return g
}

// Machine returns the canonical device: g without its label and the two
// run-mode fields, which change how a run is executed and checked but, by
// the byte-identity oracles, nothing it computes. Two configurations
// simulate the same machine exactly when their Machine values are equal;
// checkpoint records, snapshot frames and the experiments' memo ask here.
func (g GPU) Machine() GPU {
	g.Name, g.AuditEvery, g.NoFastForward = "", 0, false
	return g
}

// MachineID returns a short digest of Machine (every field by name, so a
// new field is part of it): the identity as it is written to disk.
func (g GPU) MachineID() string {
	sum := sha256.Sum256(fmt.Appendf(nil, "%+v", g.Machine()))
	return hex.EncodeToString(sum[:8])
}

// WarpsPerSubCore returns the resident-warp capacity of one sub-core.
func (g GPU) WarpsPerSubCore() int { return g.MaxWarpsPerSM / g.SubCoresPerSM }

// Validate checks structural invariants and returns a descriptive error
// for the first violation. It is the one judge of a value: what it accepts
// is built as given, no constructor clamps or defaults a field, so a value
// the simulator cannot model is refused here rather than quietly simulated
// as another (TestKnobLiveness holds every field to changing the machine).
func (g GPU) Validate() error {
	checks := []struct {
		ok  bool
		msg string
	}{
		{g.NumSMs >= 1, "NumSMs must be >= 1"},
		{g.SubCoresPerSM >= 1 && g.SubCoresPerSM <= 64, "SubCoresPerSM must be in [1, 64] (the SM's awake set is one 64-bit mask)"},
		{g.SchedulersPerSubCore >= 1, "SchedulersPerSubCore must be >= 1"},
		{g.MaxWarpsPerSM >= g.SubCoresPerSM, "MaxWarpsPerSM must cover every sub-core"},
		{g.SubCoresPerSM < 1 || g.MaxWarpsPerSM%g.SubCoresPerSM == 0, "MaxWarpsPerSM must divide evenly among sub-cores"},
		{g.SubCoresPerSM < 1 || g.MaxWarpsPerSM/g.SubCoresPerSM <= 64, "at most 64 warp slots per sub-core (the scheduler's ready set is one 64-bit mask per class)"},
		{g.BanksPerSubCore >= 1 && g.BanksPerSubCore <= 256, "BanksPerSubCore must be in [1, 256]"},
		{g.CollectorUnitsPerSubCore >= 1 && g.CollectorUnitsPerSubCore <= 64, "CollectorUnitsPerSubCore must be in [1, 64] (the collector's free-unit set is one 64-bit mask)"},
		{g.DispatchPortsPerSubCore >= 1, "DispatchPortsPerSubCore must be >= 1"},
		{g.FP32LanesPerSubCore >= 1 && g.IntLanesPerSubCore >= 1 && g.SFULanesPerSubCore >= 1,
			"FP32LanesPerSubCore, IntLanesPerSubCore and SFULanesPerSubCore must be >= 1 (a pipe needs a lane)"},
		{g.TensorPerSubCore >= 1, "TensorPerSubCore must be >= 1"},
		{g.RegFileKBPerSubCore >= 1, "RegFileKBPerSubCore must be >= 1 (no warp could be resident)"},
		{g.LSUQueue >= 1, "LSUQueue must be >= 1 (no memory instruction could ever enter the LSU)"},
		{g.SharedMemBanks >= 1, "SharedMemBanks must be >= 1"},
		{g.L1Assoc >= 1 && g.L2Assoc >= 1, "L1Assoc and L2Assoc must be >= 1"},
		{g.LineBytes > 0 && g.LineBytes&(g.LineBytes-1) == 0, "LineBytes must be a power of two"},
		{g.L1KBPerSM >= 1, "L1KBPerSM must be >= 1"},
		{g.L2KB >= 1, "L2KB must be >= 1"},
		{g.LineBytes < 1 || (g.L1Assoc <= g.L1KBPerSM*1024/g.LineBytes && g.L2Assoc <= g.L2KB*1024/g.LineBytes),
			"L1Assoc and L2Assoc must not exceed their cache's lines (the cache would be one set of more ways than it has lines)"},
		{g.L2BytesPerCycle >= 1 && g.DRAMBytesPerCycle >= 1, "L2BytesPerCycle and DRAMBytesPerCycle must be >= 1"},
		{g.L2Latency >= 0 && g.DRAMLatency >= 0, "L2Latency and DRAMLatency must be >= 0 (a fill would complete before it was requested)"},
		{g.HashTableEntries == 4 || g.HashTableEntries == 16, "HashTableEntries must be 4 or 16"},
		{g.RBAScoreLatency >= 0, "RBAScoreLatency must be >= 0"},
		{g.WarpScheduler <= SchedRBA, "WarpScheduler must be 0 (GTO), 1 (LRR) or 2 (RBA)"},
		{g.SubCoreAssign <= AssignShuffle, "SubCoreAssign must be 0 (RR), 1 (SRR) or 2 (Shuffle)"},
		{g.MaxBlocksPerSM >= 1, "MaxBlocksPerSM must be >= 1"},
		{g.SharedMemKBPerSM >= 0, "SharedMemKBPerSM must be >= 0"},
		{g.AuditEvery >= 0, "AuditEvery must be >= 0"},
	}
	for _, c := range checks {
		if !c.ok {
			return fmt.Errorf("config %q: %s", g.Name, c.msg)
		}
	}
	return nil
}
