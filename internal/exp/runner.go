// Package exp reproduces every table and figure of the paper's evaluation
// (Section VI). Each Fig*/Sec* function runs the required configurations
// over the required workloads and returns a Table whose rows mirror the
// published artifact. EXPERIMENTS.md records paper-vs-measured values.
//
// Experiments run on a scaled-down device (4 SMs instead of 80, with
// DRAM/L2 bandwidth scaled proportionally) so that full 112-application
// sweeps complete in seconds. The studied effects are per-SM, so the
// scaling preserves every result shape; the SM-count study (Fig. 18)
// sweeps the SM count explicitly.
package exp

import (
	"context"
	"fmt"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/harness"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// ScaledSMs is the SM count experiments run with.
const ScaledSMs = 4

// Base returns the scaled-down Table II baseline (GTO + RR).
func Base() config.GPU {
	g := config.VoltaV100()
	return scale(g)
}

// FC returns the scaled-down fully-connected SM.
func FC() config.GPU {
	g := config.FullyConnected()
	return scale(g)
}

func scale(g config.GPU) config.GPU {
	factor := g.NumSMs / ScaledSMs
	g.NumSMs = ScaledSMs
	g.DRAMBytesPerCycle /= factor
	g.L2BytesPerCycle /= factor
	g.L2KB /= factor
	if g.L2KB < 64 {
		g.L2KB = 64
	}
	g.Name = g.Name + "-scaled"
	return g
}

// DeviceFor adapts a scaled configuration to an application's suite:
// TPC-H runs with the paper's 20-SM memory-bandwidth share (Table II — the
// full device memory system behind a quarter of the SMs, i.e. 4x the
// per-SM bandwidth of the 80-SM configuration).
func DeviceFor(cfg config.GPU, app workloads.App) config.GPU {
	if app.Suite == "tpch-u" || app.Suite == "tpch-c" {
		cfg.DRAMBytesPerCycle *= 4
		cfg.L2BytesPerCycle *= 4
	}
	return cfg
}

// RunApp simulates one application on one configuration (adapted per
// suite, see DeviceFor) and returns its statistics.
func RunApp(cfg config.GPU, app workloads.App) (*stats.Run, error) {
	cfg = DeviceFor(cfg, app)
	return runAppRaw(cfg, app)
}

func runAppRaw(cfg config.GPU, app workloads.App) (*stats.Run, error) {
	g, err := gpu.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := g.RunKernels(app.Kernels, 0); err != nil {
		return nil, fmt.Errorf("%s on %s: %w", app.Name, cfg.Name, err)
	}
	return g.Run(), nil
}

// RunKernelOn simulates a single standalone kernel (microbenchmarks).
func RunKernelOn(cfg config.GPU, k *gpu.Kernel) (*stats.Run, error) {
	g, err := gpu.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := g.RunKernel(k, 0); err != nil {
		return nil, err
	}
	return g.Run(), nil
}

// SweepOpts is the harness configuration Sweep/SweepRuns execute under.
// The zero value runs unsupervised (no timeout, default cycle cap);
// binaries set it once at startup from their flags (-timeout,
// -max-cycles) before running experiments.
var SweepOpts harness.Options

// Sweep simulates every app on every configuration in parallel and
// returns cycles[app][cfg]. The paper's figures need every cell, so any
// faulted cell aborts with an aggregated error.
func Sweep(cfgs []config.GPU, apps []workloads.App) ([][]int64, error) {
	runs, cellErrs, err := SweepRuns(cfgs, apps)
	if err == nil {
		err = cellErrs.Err()
	}
	if err != nil {
		return nil, err
	}
	cycles := make([][]int64, len(apps))
	for i := range apps {
		cycles[i] = make([]int64, len(cfgs))
		for j := range cfgs {
			cycles[i][j] = runs[i][j].Cycles
		}
	}
	return cycles, nil
}

// SweepRuns is Sweep keeping the full per-run statistics. It executes
// the matrix on the fault-tolerant harness (internal/harness): a cell
// that panics, livelocks, or errors is reported in the returned
// CellErrors — and left nil in the matrix — instead of crashing the
// sweep or aborting the remaining cells. Callers must check the error
// map (or harness.CellErrors.Err) before dereferencing cells.
func SweepRuns(cfgs []config.GPU, apps []workloads.App) ([][]*stats.Run, harness.CellErrors, error) {
	opt := SweepOpts
	opt.Adapt = DeviceFor
	res, err := harness.Run(context.Background(), cfgs, nil, apps, opt)
	if err != nil {
		return nil, nil, err
	}
	return res.Runs, res.Errs, nil
}

// Speedup converts (baseline, variant) cycle counts to a speedup factor.
func Speedup(base, variant int64) float64 {
	if variant == 0 {
		return 0
	}
	return float64(base) / float64(variant)
}
