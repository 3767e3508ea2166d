package gpu

import (
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/program"
)

// The zero-alloc gate: simulated work must not allocate. One stray
// allocation per tick dominates paper-scale sweep wall time, and nothing
// static stands behind this gate — it is the only guard on the property
// (docs/STATIC_ANALYSIS.md, audit), so its kernel and configurations are
// chosen to run every per-cycle path inside the measured difference:
// issue under each warp scheduler, operand collection with and without
// bank stealing, the LSU and the memory hierarchy at every level,
// barriers, warp exit, the block scheduler probing every cycle for room
// that is not there yet, the fast-forward probe and skip, the heartbeat,
// and trace emission.
//
// Measurement: two complete runs of the same grid whose warps differ only
// in loop trip count. Construction, launch and each placed block allocate
// a fixed amount, so any difference between the runs is allocation
// attributable to the extra simulated instructions and cycles alone. The
// comparison tolerates allocGateSlack one-off allocations: the longer run
// measures 2–5 more (a queue or an MSHR table reaching a higher high-water
// mark; a GC cycle's runtime-internal mallocs). The
// rarest genuine signal, an allocation per barrier release, measures 144;
// one per instruction or per cycle, thousands.

// allocGateProgram touches every instruction class once per trip:
// gathers that miss to DRAM (MSHRs, both bandwidth channels), a
// cache-resident stream, stores, scratchpad and constant accesses, the
// SFU, and a block-wide barrier.
func allocGateProgram(trips int64) *program.Program {
	b := program.NewBuilder()
	b.Loop(trips, func(lb *program.Builder) {
		lb.LDG(4, 1, isa.MemTrait{Pattern: isa.PatRandom, Footprint: 1 << 26, Divergence: 4})
		lb.FMA(5, 4, 4, 5)
		lb.LDG(6, 1, isa.MemTrait{Pattern: isa.PatCoalesced, Footprint: 96 << 10, Shared: true})
		lb.IADD(7, 6, 5)
		lb.STS(2, 7, isa.MemTrait{Pattern: isa.PatStrided, StrideBytes: 8})
		lb.LDS(8, 2, isa.MemTrait{Pattern: isa.PatCoalesced})
		lb.SFU(9, 8)
		lb.LDC(10)
		lb.FMA(11, 9, 10, 11)
		lb.STG(1, 11, isa.MemTrait{Pattern: isa.PatCoalesced, Footprint: 1 << 20})
		lb.Bar()
	})
	return b.MustBuild()
}

const (
	allocGateShort = 8  // loop trips per warp
	allocGateLong  = 32 // 2,304 more trips over the grid's 96 warps
	allocGateSlack = 16
)

// allocGateRun simulates the gate's grid to completion on a fresh device:
// six 16-warp blocks on one SM whose register files hold two at a time (10
// warps of 48 registers per sub-core), so four of them wait while the
// first waves run — turned away by CanAccept's per-sub-core feasibility
// scan, not by its cheap whole-SM checks. The device carries a
// flight-recorder tracer (no sampler, no sink): every emission site runs,
// and must not allocate either.
func allocGateRun(tb testing.TB, cfg config.GPU, p *program.Program) *GPU {
	g := tracedGPU(tb, cfg, 0)
	k := &Kernel{Name: "steady", Blocks: 6, WarpsPerBlock: 16, RegsPerThread: 48,
		WarpProgram: func(b, w int) *program.Program { return p }}
	if err := g.RunKernel(k, 0); err != nil {
		tb.Fatal(err)
	}
	return g
}

// allocGateConfigs are the variants the gate covers: every warp
// scheduler, and RBA again with the two optional per-cycle mechanisms —
// bank stealing and a delayed score tap.
func allocGateConfigs() []struct {
	name string
	cfg  config.GPU
} {
	stale := tinyCfg().WithScheduler(config.SchedRBA)
	stale.RBAScoreLatency = 5
	return []struct {
		name string
		cfg  config.GPU
	}{
		{"gto", tinyCfg()},
		{"lrr", tinyCfg().WithScheduler(config.SchedLRR)},
		{"rba", tinyCfg().WithScheduler(config.SchedRBA)},
		{"rba-stealing", stale.WithBankStealing()},
	}
}

// extraAllocs returns how many more allocations the long run makes than
// the short one, and how many more cycles it simulates.
func extraAllocs(tb testing.TB, cfg config.GPU) (allocs float64, cycles int64) {
	tb.Helper()
	var short, long int64
	pShort, pLong := allocGateProgram(allocGateShort), allocGateProgram(allocGateLong)
	aShort := testing.AllocsPerRun(3, func() { short = allocGateRun(tb, cfg, pShort).Cycle() })
	aLong := testing.AllocsPerRun(3, func() { long = allocGateRun(tb, cfg, pLong).Cycle() })
	return aLong - aShort, long - short
}

// TestCycleLoopZeroAlloc is the tier-1 half of the gate, on by default
// in go test ./... — four times the work (some 75k more cycles) must add
// zero allocations.
func TestCycleLoopZeroAlloc(t *testing.T) {
	for _, tc := range allocGateConfigs() {
		t.Run(tc.name, func(t *testing.T) {
			if extra, cycles := extraAllocs(t, tc.cfg); extra > allocGateSlack {
				t.Errorf("%s: %.1f more allocations over %d more cycles — simulated work allocates (%.5f allocs/cycle)",
					tc.name, extra, cycles, extra/float64(cycles))
			}
		})
	}
}
