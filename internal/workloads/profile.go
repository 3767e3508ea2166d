// Package workloads synthesizes the paper's evaluation workloads: 112
// applications across 8 benchmark suites (Section V, Table III), the FMA
// imbalance microbenchmarks of Figures 3/4/8, and the seven register-file
// stress microbenchmarks used to validate the collector-unit count.
//
// Substitution note (see DESIGN.md): the paper drives Accel-Sim with SASS
// traces of the real applications. Traces are unavailable here, so each
// application is generated from a Profile capturing the properties the
// paper's two effects depend on: instruction mix and operand shapes
// (register-bank pressure), instruction-level parallelism, memory access
// patterns and footprints (LSU/cache pressure), barrier cadence, and —
// critically — the distribution of per-warp work within a thread block
// (inter-warp divergence). Suite parameters are set from the paper's
// descriptions: TPC-H's warp-specialized one-long-warp-in-four pattern
// with ~100x imbalance in snappy decompression kernels, cuGraph's
// register-intensive repeated-operand behaviour, Parboil/Polybench's
// read-operand-stage saturation, DeepBench/Cutlass's tensor-pipe use.
package workloads

import (
	"fmt"
	"sync"

	"repro/internal/gpu"
	"repro/internal/isa"
	"repro/internal/program"
)

// Profile parameterizes one synthetic kernel.
type Profile struct {
	// Name labels the kernel.
	Name string
	// Blocks and WarpsPerBlock shape the grid.
	Blocks        int
	WarpsPerBlock int
	// RegsPerThread is the occupancy-limiting register footprint.
	RegsPerThread int
	// SharedMemPerBlock is the scratchpad reservation in bytes.
	SharedMemPerBlock int

	// Iters is the main loop trip count for a baseline (1.0x) warp.
	Iters int
	// ILP is the number of independent accumulator chains.
	ILP int

	// Per-iteration operation mix.
	FMAs    int
	IAdds   int
	SFUs    int
	Tensors int
	// Loads/Stores are global accesses per iteration with their traits.
	Loads      int
	LoadTrait  isa.MemTrait
	Stores     int
	StoreTrait isa.MemTrait
	// SharedOps are scratchpad accesses per iteration.
	SharedOps   int
	SharedTrait isa.MemTrait

	// OperandMode selects how FMA source registers are laid out.
	OperandMode OperandMode

	// BarrierEvery inserts a block-wide barrier every n iterations
	// (0 = none); EndBarrier adds one before exit.
	BarrierEvery int
	EndBarrier   bool

	// WarpWork scales a warp's Iters by position in its block (the
	// inter-warp-divergence knob). nil means uniform 1.0.
	WarpWork func(warpInBlock int) float64
}

// OperandMode selects FMA register layouts with different bank behaviour.
type OperandMode uint8

const (
	// OperandsSpread walks many distinct registers with mixed bank
	// parities — kernels whose compiler found a conflict-free layout.
	OperandsSpread OperandMode = iota
	// OperandsNarrow reuses a small set of same-parity source registers
	// (cuGraph's behaviour: extra banks do not help, scheduling does).
	OperandsNarrow
	// OperandsClustered places each instruction's sources in one bank
	// parity class, alternating classes between instructions — the
	// real-SASS pattern that makes the read-operand stage the bottleneck
	// on two-bank sub-cores: whichever warp issues, its three reads pile
	// onto one bank queue, and the scheduler's choice of *which* warp
	// (hence which parity, after the per-slot swizzle) decides whether
	// bank load stays balanced. This is the layout RBA exploits.
	OperandsClustered
	// OperandsConflicting pins all sources to a single parity class
	// permanently (the RF-stress microbenchmarks' worst case).
	OperandsConflicting
)

// Kernel materializes the profile into a runnable kernel. Per-warp
// programs are memoized by (work multiplier, parity flip), so grids of
// any size stay cheap to build.
//
// Clustered-operand kernels flip their bank parity class per thread
// block: different launches of the same code end up with different
// register assignments in real compilations, and block churn is what
// gives register-bank pressure its slow (hundreds of cycles) drift — the
// stability that lets RBA tolerate stale scores (Section VI-B4).
func (p *Profile) Kernel() *gpu.Kernel {
	type key struct {
		iters int64
		flip  bool
	}
	// One kernel serves every configuration's cell of its app, and the
	// harness runs those cells on parallel workers: the memo is shared.
	var mu sync.Mutex
	cache := make(map[key]*program.Program)
	base := func(mult float64, flip bool) *program.Program {
		iters := int64(float64(p.Iters)*mult + 0.5)
		if iters < 1 {
			iters = 1
		}
		k := key{iters, flip}
		mu.Lock()
		defer mu.Unlock()
		if prog, ok := cache[k]; ok {
			return prog
		}
		prog := p.build(iters, flip)
		cache[k] = prog
		return prog
	}
	return &gpu.Kernel{
		Name:              p.Name,
		Blocks:            p.Blocks,
		WarpsPerBlock:     p.WarpsPerBlock,
		RegsPerThread:     p.RegsPerThread,
		SharedMemPerBlock: p.SharedMemPerBlock,
		WarpProgram: func(block, warp int) *program.Program {
			mult := 1.0
			if p.WarpWork != nil {
				mult = p.WarpWork(warp)
			}
			flip := p.OperandMode == OperandsClustered && block&1 == 1
			return base(mult, flip)
		},
	}
}

// build emits the program for one warp with the given trip count;
// flip inverts the clustered bank parity class (per-block variation).
func (p *Profile) build(iters int64, flip bool) *program.Program {
	b := program.NewBuilder()
	ilp := p.ILP
	if ilp < 1 {
		ilp = 1
	}
	// Register plan: R1-R3 constants, accumulators from R4, a rotated
	// load-target window after them, then scratch. In clustered mode the
	// accumulator tracks the source-operand parity phase so all three
	// operands of an FMA share a bank class.
	fpar := 0
	if flip {
		fpar = 1
	}
	acc := func(i int) isa.Reg { return isa.Reg(4 + i%ilp) }

	// The loop body is unrolled by a factor of `unroll` with the memory
	// target registers rotated across phases — the software pipelining
	// every production compiler applies, without which each iteration's
	// load would WAW-serialize on its predecessor at full memory latency.
	const unroll = 4
	memRegs := p.Loads + p.SharedOps
	if memRegs < 1 {
		memRegs = 1
	}
	ldBase := 4 + ilp + (ilp & 1) + 16 // past the scratch window fmaSources uses
	ldT := func(phase, i int) isa.Reg {
		return isa.Reg(ldBase + (phase*memRegs+i)%(unroll*memRegs))
	}

	// A little setup prologue (kernel argument reads, address setup).
	b.LDC(1)
	b.LDC(2)
	b.IADD(3, 1, 2)

	emit := func(lb *program.Builder, phase int) {
		for i := 0; i < p.Loads; i++ {
			lb.LDG(ldT(phase, i), 3, p.LoadTrait)
		}
		for i := 0; i < p.SharedOps; i++ {
			lb.LDS(ldT(phase, p.Loads+i), 3, p.SharedTrait)
		}
		for i := 0; i < p.FMAs; i++ {
			d := acc(phase*p.FMAs + i)
			a, c := p.fmaSources(phase*p.FMAs+i, ilp, fpar)
			// The first FMA folds the *previous* phase's loaded value in,
			// so loads feed compute one unroll phase later (pipelined).
			if p.Loads > 0 && i == 0 {
				a = ldT(phase+unroll-1, 0)
			}
			lb.FMA(d, a, c, d)
		}
		for i := 0; i < p.IAdds; i++ {
			lb.IADD(acc(phase*p.IAdds+i), 3, acc(phase*p.IAdds+i))
		}
		for i := 0; i < p.SFUs; i++ {
			lb.SFU(acc(phase+i), acc(phase+i))
		}
		for i := 0; i < p.Tensors; i++ {
			d := acc(phase*p.Tensors + i)
			lb.Tensor(d, 1, 2, d)
		}
		for i := 0; i < p.Stores; i++ {
			lb.STG(3, acc(phase+i), p.StoreTrait)
		}
	}
	body := func(lb *program.Builder) {
		for ph := 0; ph < unroll; ph++ {
			emit(lb, ph)
		}
	}
	tail := func(n int64) {
		if n <= 0 {
			return
		}
		b.Loop(n, func(lb *program.Builder) { emit(lb, 0) })
	}

	// Barriers inside the loop are only legal when every warp runs the
	// same trip count (WarpWork == nil); Validate enforces this. The
	// barrier cadence rounds to whole unrolled groups.
	if p.BarrierEvery > 0 && int64(p.BarrierEvery) < iters {
		groupsPerRound := int64(p.BarrierEvery) / unroll
		if groupsPerRound < 1 {
			groupsPerRound = 1
		}
		perRound := groupsPerRound * unroll
		rounds := iters / perRound
		rem := iters - rounds*perRound
		if rounds > 0 {
			b.Loop(rounds, func(lb *program.Builder) {
				lb.Loop(groupsPerRound, body)
				lb.Bar()
			})
		}
		tail(rem)
	} else {
		groups := iters / unroll
		if groups > 0 {
			b.Loop(groups, body)
		}
		tail(iters - groups*unroll)
	}
	if p.EndBarrier {
		b.Bar()
	}
	return b.MustBuild()
}

// clusterPhaseShift sets how long (in instructions, log2) a clustered
// kernel keeps its operands in one bank parity class.
const clusterPhaseShift = 5

// fmaSources picks the two non-accumulator sources per OperandMode;
// fpar inverts the clustered parity class.
func (p *Profile) fmaSources(i, ilp, fpar int) (isa.Reg, isa.Reg) {
	base := 4 + ilp
	base += base & 1 // even-aligned scratch window
	switch p.OperandMode {
	case OperandsNarrow:
		return isa.Reg(base), isa.Reg(base + 2)
	case OperandsClustered:
		// Parity phases persist for 2^clusterPhaseShift instructions:
		// real kernels keep their operand pressure on one bank class for
		// whole expression trees, which is why stale RBA scores remain
		// useful (Section VI-B4). Which bank a warp pressures is set by
		// its slot swizzle, so co-resident warps differ.
		par := ((i >> clusterPhaseShift) & 1) ^ fpar
		return isa.Reg(base + 2*(i%5) + par), isa.Reg(base + 2*((i*3+1)%5) + par)
	case OperandsConflicting:
		return isa.Reg(base + 2*(i%3)), isa.Reg(base + 2*((i+1)%3))
	default:
		return isa.Reg(base + i%7), isa.Reg(base + 7 + (i*3)%11)
	}
}

// Validate sanity-checks the profile.
func (p *Profile) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("workloads: profile without name")
	case p.Blocks < 1 || p.WarpsPerBlock < 1:
		return fmt.Errorf("workloads: %s has empty grid", p.Name)
	case p.Iters < 1:
		return fmt.Errorf("workloads: %s has no iterations", p.Name)
	case p.RegsPerThread < 1:
		return fmt.Errorf("workloads: %s has no registers", p.Name)
	case p.FMAs+p.IAdds+p.SFUs+p.Tensors+p.Loads+p.Stores+p.SharedOps == 0:
		return fmt.Errorf("workloads: %s has an empty body", p.Name)
	case p.BarrierEvery > 0 && p.WarpWork != nil:
		return fmt.Errorf("workloads: %s mixes in-loop barriers with divergent warp work (would deadlock)", p.Name)
	}
	return nil
}
