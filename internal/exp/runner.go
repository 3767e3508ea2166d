// Package exp reproduces every table and figure of the paper's evaluation
// (Section VI). The registry (experiments.go) lists them; ByID runs one
// and returns a Table whose rows mirror the published artifact.
// EXPERIMENTS.md records paper-vs-measured values.
//
// Experiments run on a scaled-down device (4 SMs instead of 80, with
// DRAM/L2 bandwidth scaled proportionally) so that full 112-application
// sweeps complete in seconds. The studied effects are per-SM, so the
// scaling preserves every result shape; the SM-count study (Fig. 18)
// sweeps the SM count explicitly.
package exp

import (
	"context"
	"slices"
	"sync"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/harness"
	"repro/internal/stats"
	"repro/internal/trace"
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

// runKernels simulates a sequential kernel list on a fresh device, with
// tr attached when non-nil: one cell, named for its first kernel, under the
// harness and SweepOpts, so a micro figure is capped, timed out and
// panic-isolated as a sweep cell is. With runTogether it is the only place
// the micro and traced figures build a device; sweep cells go through sweep.
func runKernels(cfg config.GPU, tr *trace.Tracer, ks ...*gpu.Kernel) (*stats.Run, error) {
	opt := SweepOpts
	opt.Tracer = tr
	res, err := harness.Run(context.Background(), []config.GPU{cfg}, nil, []workloads.App{{Name: ks[0].Name, Kernels: ks}}, opt)
	if err != nil {
		return nil, err
	}
	if fault := res.Errs[harness.Cell{}]; fault != nil { // the *SimFault itself, for errors.As
		return nil, fault
	}
	return res.Runs[0][0], nil
}

// runTogether simulates a concurrent kernel set (separate streams,
// launched together) on a fresh device. It stays outside the harness: a
// concurrent launch is not a workloads.App, whose kernels run in sequence.
func runTogether(cfg config.GPU, ks ...*gpu.Kernel) (*stats.Run, error) {
	g, err := gpu.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := g.RunConcurrent(ks, SweepOpts.MaxCycles); err != nil {
		return nil, err
	}
	return g.Run(), nil
}

// SweepOpts is the harness configuration sweep cells and the micro
// figures' cells (runKernels) execute under; its MaxCycles caps
// runTogether's launches too. The zero value runs unsupervised (no
// timeout, default cycle cap); binaries set it once at startup from their
// flags (-timeout, -max-cycles) before running experiments.
var SweepOpts harness.Options

// design is one named configuration of a study. The name labels the
// configuration in fault records; it is not part of a cell's identity.
type design struct {
	name string
	cfg  config.GPU
}

// cellKey identifies what a sweep cell simulates: the machine the cell
// runs on (after DeviceFor) and the application. Two designs that differ
// in any modelled field have different keys; two that differ only in
// label share one.
type cellKey struct {
	machine config.GPU
	app     string
}

func keyOf(cfg config.GPU, app workloads.App) cellKey {
	return cellKey{DeviceFor(cfg, app).Machine(), app.Name}
}

// memo holds every sweep cell completed in this process. The simulator
// is deterministic (TestDeterminism, the benchmark's sim_digest), so a
// cell a second figure asks for is the cell the first one ran: the
// paper's figures are projections of one matrix, and `experiments all`
// would otherwise simulate 47% of its cells twice. It lives here and not
// in the harness because `go run ./benchmark` times harness.Run and must
// keep simulating every cell it is handed.
var memo = struct {
	sync.Mutex
	runs              map[cellKey]*stats.Run
	simulated, reused int
}{runs: map[cellKey]*stats.Run{}}

// SweepCells reports how many sweep cells this process has simulated and
// how many it served from an earlier experiment's run instead.
func SweepCells() (simulated, reused int) {
	memo.Lock()
	defer memo.Unlock()
	return memo.simulated, memo.reused
}

// sweep returns runs[app][design], simulating only the cells the process
// has not completed before — the single place a sweep cell is simulated.
// Missing cells run on the fault-tolerant harness (internal/harness) as
// one sub-matrix: the designs with a missing cell × the apps with one.
// The paper's figures need every cell, so a faulted cell (never stored)
// fails the sweep with the harness's aggregated error.
func sweep(designs []design, apps []workloads.App) ([][]*stats.Run, error) {
	var cfgs []config.GPU
	var names []string
	var todo []workloads.App
	memo.Lock()
	missing := func(d design, a workloads.App) bool { return memo.runs[keyOf(d.cfg, a)] == nil }
	for _, d := range designs {
		if slices.ContainsFunc(apps, func(a workloads.App) bool { return missing(d, a) }) {
			cfgs, names = append(cfgs, d.cfg), append(names, d.name)
		}
	}
	for _, a := range apps {
		if slices.ContainsFunc(designs, func(d design) bool { return missing(d, a) }) {
			todo = append(todo, a)
		}
	}
	memo.Unlock()

	res := &harness.Result{}
	if len(todo) > 0 {
		opt := SweepOpts
		opt.Adapt = DeviceFor
		var err error
		if res, err = harness.Run(context.Background(), cfgs, names, todo, opt); err != nil {
			return nil, err
		}
	}

	memo.Lock()
	defer memo.Unlock()
	memo.simulated += res.Executed
	memo.reused += len(apps)*len(designs) - res.Executed
	for i, a := range todo {
		for j, cfg := range cfgs {
			if r := res.Runs[i][j]; r != nil { // only completed cells are stored
				memo.runs[keyOf(cfg, a)] = r
			}
		}
	}
	runs := make([][]*stats.Run, len(apps))
	for i, a := range apps {
		runs[i] = make([]*stats.Run, len(designs))
		for j, d := range designs {
			runs[i][j] = memo.runs[keyOf(d.cfg, a)]
		}
	}
	return runs, res.Errs.Err()
}

// Speedup converts (baseline, variant) cycle counts to a speedup factor.
func Speedup(base, variant int64) float64 {
	if variant == 0 {
		return 0
	}
	return float64(base) / float64(variant)
}
