// Register-file pressure anatomy: build a custom kernel whose FMA
// operands cluster into one bank class per instruction (the pattern that
// makes two-bank sub-cores conflict-bound), then compare GTO, RBA, a
// doubled operand collector, and the fully-connected SM on it —
// the cost/benefit trade-off at the heart of the paper.
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/exp"
	"repro/internal/power"
	"repro/internal/workloads"
)

func main() {
	// A custom register-file-bound kernel via the workload profile API.
	profile := repro.WorkloadProfile{
		Name:          "rf-bound-demo",
		Blocks:        24,
		WarpsPerBlock: 8,
		RegsPerThread: 40,
		Iters:         48,
		ILP:           6,
		FMAs:          6,
		OperandMode:   workloads.OperandsClustered,
	}
	kernel := profile.Kernel()

	base := repro.VoltaV100().WithSMs(4)
	designs := []struct {
		name string
		cfg  repro.Config
		// area/power of the sub-core front-end (Fig 13 model)
		hw power.Design
	}{
		{"GTO (baseline)", base, power.Design{CUs: 2, Banks: 2}},
		{"RBA", base.WithScheduler(repro.SchedRBA), power.Design{CUs: 2, Banks: 2, RBA: true}},
		{"4 CUs", base.WithCUs(4), power.Design{CUs: 4, Banks: 2}},
		{"bank stealing", base.WithBankStealing(), power.Design{CUs: 2, Banks: 2}},
		{"fully-connected", repro.FullyConnected().WithSMs(4), power.Design{CUs: 8, Banks: 8}},
	}

	var baseCycles int64
	fmt.Printf("%-16s %10s %8s %12s %9s %9s\n",
		"design", "cycles", "speedup", "conflicts", "area-x", "power-x")
	for i, d := range designs {
		r, err := repro.RunKernel(d.cfg, kernel)
		if err != nil {
			log.Fatal(err)
		}
		if i == 0 {
			baseCycles = r.Cycles
		}
		area, pw := power.Relative(d.hw)
		fmt.Printf("%-16s %10d %7.2fx %12d %9.2f %9.2f\n",
			d.name, r.Cycles, float64(baseCycles)/float64(r.Cycles),
			r.TotalBankConflicts(), area, pw)
	}
	fmt.Printf("\nRBA buys CU-scaling-class speedup at ~%.0f%% of the area/power cost (Fig 10/13).\n",
		(exp.Paper("fig13", "rba-area")-1)*100)
}
