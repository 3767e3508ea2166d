// Warp-specialized programming (Section I / II): build a cudaDMA-style
// kernel where every fourth warp is a "producer" that streams data
// through shared memory while the rest are "consumers" doing the math.
// The producers execute far more instructions — the inter-warp-divergence
// pattern that makes round-robin sub-core assignment pathological — and
// the per-sub-core issue timeline shows exactly where the time goes.
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/isa"
	"repro/internal/plot"
	"repro/internal/program"
	"repro/internal/trace"
)

// producerProgram streams cache-resident tiles into shared memory and
// runs the address/predicate arithmetic around them: long-running and
// issue-hungry (the snappy-decompression shape).
func producerProgram() *program.Program {
	b := program.NewBuilder()
	b.Loop(110, func(lb *program.Builder) {
		lb.LDG(16, 1, isa.MemTrait{Pattern: isa.PatCoalesced, Footprint: 96 << 10, Shared: true})
		// Decode/arithmetic burst between memory operations: six
		// independent chains keep the warp issue-hungry.
		for rep := 0; rep < 3; rep++ {
			lb.IADD(4, 1, 4)
			lb.IADD(5, 1, 5)
			lb.IADD(6, 1, 6)
			lb.FMA(8, 1, 2, 8)
			lb.FMA(9, 1, 2, 9)
			lb.FMA(10, 1, 2, 10)
		}
		lb.STS(2, 16, isa.MemTrait{Pattern: isa.PatCoalesced})
	})
	b.Bar()
	return b.MustBuild()
}

// consumerProgram reads staged tiles and computes: short bursts then done.
func consumerProgram() *program.Program {
	b := program.NewBuilder()
	b.Loop(40, func(lb *program.Builder) {
		lb.LDS(4, 2, isa.MemTrait{Pattern: isa.PatCoalesced})
		lb.FMA(6, 4, 1, 6)
		lb.FMA(7, 4, 1, 7)
	})
	b.Bar()
	return b.MustBuild()
}

func main() {
	producer := producerProgram()
	consumer := consumerProgram()
	kernel := &repro.Kernel{
		Name:              "warp-specialized",
		Blocks:            8,
		WarpsPerBlock:     16,
		RegsPerThread:     24,
		SharedMemPerBlock: 16 << 10,
		WarpProgram: func(block, w int) *program.Program {
			if w%4 == 0 { // producers at 0,4,8,12: all on sub-core 0 under RR
				return producer
			}
			return consumer
		},
	}

	base := repro.VoltaV100().WithSMs(2)
	for _, d := range []struct {
		name string
		cfg  repro.Config
	}{
		{"round-robin (hardware)", base},
		{"SRR (paper)", base.WithAssign(repro.AssignSRR)},
		{"Shuffle (paper)", base.WithAssign(repro.AssignShuffle)},
	} {
		g, err := repro.NewGPU(d.cfg)
		if err != nil {
			log.Fatal(err)
		}
		// The tracer's counter sampler (internal/trace) records SM 0's
		// per-sub-core issue counts every 32 cycles; no event ring.
		sampler := trace.OptionsFor(&d.cfg, 0)
		sampler.SamplePeriod = 32
		tr := trace.New(sampler)
		g.SetTracer(tr)
		if err := g.RunKernel(kernel, 0); err != nil {
			log.Fatal(err)
		}
		r := g.Run()
		fmt.Printf("%s: %d cycles, issue CoV %.2f\n", d.name, r.Cycles, r.IssueCoV())
		for sc, series := range tr.Counters().IssueBySub {
			vals := make([]float64, len(series))
			for i, v := range series {
				vals[i] = float64(v)
			}
			fmt.Println("  " + plot.Series(fmt.Sprintf("sub-core %d", sc), vals, 80))
		}
		fmt.Println()
	}
	fmt.Println("Under round robin every producer warp lands on sub-core 0; SRR/Shuffle spread them.")
}
