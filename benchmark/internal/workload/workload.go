// Package workload builds the benchmark's five named workloads from a
// seed. A workload is a fixed list of cells (application × scheduler);
// the simulator only ever receives the generated kernels, never the seed.
//
// Why these five: each one makes a different layer of the simulator do
// most of the host work, so a change to one layer has a workload that
// exercises it and a workload that bypasses it (see README.md for the
// interaction table).
package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/config"
	"repro/internal/exp"
	"repro/internal/gpu"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/workloads"
)

// Mode selects the path a workload's cells take into the simulator.
type Mode uint8

const (
	// Direct cells run on a fresh gpu.New + RunKernels.
	Direct Mode = iota
	// Harness cells run through harness.Run with default options — the
	// path cmd/experiments and cmd/sweep take, except that the benchmark
	// makes one call per cell where they make one over the whole matrix
	// (see measure.Runner.Harness for why).
	Harness
	// Guarded cells run through harness.Run with the whole guard ring
	// armed: checkpoint, snapshot frames, auditor, metrics, watchdog.
	Guarded
)

// Names lists the workloads in report order.
var Names = []string{"issue_dense", "mem_bound", "idle_latency", "paper_sweep", "guarded_sweep"}

// Why records, one line each, why a workload is in the benchmark.
var Why = map[string]string{
	"issue_dense":   "ALU-only kernels at ~50 warps/SM: issue stage, collector and scheduler Pick do all the host work, memory and NextEvent none",
	"mem_bound":     "divergent gathers at L1/L2/DRAM footprints plus one coalesced stream: mem.Hierarchy and the failing fast-forward probe do most of the host work",
	"idle_latency":  "dependent load-FMA chains, two 2-3 warp blocks on four SMs: over 85% of cycles fast-forward, so NextEvent, skipTo and idle ticks do the host work",
	"paper_sweep":   "the 25 Table III sensitive apps x {gto,rba}, one harness.Run call per cell: the cells cmd/sweep and cmd/experiments run, short and mixed, and Fig 10's cell set for fidelity",
	"guarded_sweep": "the same 25 apps x {rba}, one harness.Run call per cell with checkpoint, snapshot frames, auditor, metrics and watchdog armed: the heartbeat's cost shows here only",
}

// Workload is one named cell list.
type Workload struct {
	Name string
	Mode Mode
	// Apps are in name order; Order is the seed's permutation of them,
	// the order a pass runs them in.
	Apps  []workloads.App
	Order []int
	// Scheds labels Cfgs ("gto", "rba"). Cfgs are the sweep
	// configurations before exp.DeviceFor's per-suite adaptation.
	Scheds []string
	Cfgs   []config.GPU
	// Fig10 marks the cell set of the paper's Fig 10 (sensitive apps under
	// gto and rba), the one the RBA-gain fidelity error is defined on.
	Fig10 bool
}

// Cell is one (application, configuration) simulation.
type Cell struct {
	App   workloads.App
	Sched string
	// Cfg is the device the cell runs on (exp.DeviceFor applied).
	Cfg config.GPU
}

// Name is the cell's report label, "app/sched".
func (c *Cell) Name() string { return c.App.Name + "/" + c.Sched }

// OrderedApps returns the apps in pass order.
func (w *Workload) OrderedApps() []workloads.App {
	out := make([]workloads.App, len(w.Order))
	for i, ai := range w.Order {
		out[i] = w.Apps[ai]
	}
	return out
}

// Cells returns the cell list in pass order: apps in the seed's
// permutation, each on every configuration.
func (w *Workload) Cells() []Cell {
	var out []Cell
	for _, app := range w.OrderedApps() {
		for ci, cfg := range w.Cfgs {
			out = append(out, Cell{App: app, Sched: w.Scheds[ci], Cfg: exp.DeviceFor(cfg, app)})
		}
	}
	return out
}

// First returns the workload's first cell in name order: the warm-up
// cell, the same whatever the seed's permutation.
func (w *Workload) First() Cell {
	app := w.Apps[0]
	return Cell{App: app, Sched: w.Scheds[0], Cfg: exp.DeviceFor(w.Cfgs[0], app)}
}

func sched(names ...string) ([]string, []config.GPU) {
	var cfgs []config.GPU
	for _, n := range names {
		c := exp.Base()
		if n == "rba" {
			c = c.WithScheduler(config.SchedRBA)
		}
		cfgs = append(cfgs, c)
	}
	return names, cfgs
}

// Build constructs the named workload from scratch — nothing is
// memoised, so building is the set-up cost a fresh process pays. scale
// shrinks the work for tests (1 = the benchmark's size): synthetic
// kernels run scale× the iterations, the paper sweeps keep the first
// scale× of their apps.
func Build(name string, seed int64, scale float64) (*Workload, error) {
	if scale <= 0 || scale > 1 {
		return nil, fmt.Errorf("workload: scale %v outside (0,1]", scale)
	}
	rng := rand.New(rand.NewSource(seed))
	w := &Workload{Name: name}
	var err error
	switch name {
	case "issue_dense":
		w.Apps = denseApps(rng, scale)
		w.Scheds, w.Cfgs = sched("gto", "rba")
	case "mem_bound":
		w.Apps = gatherApps(rng, scale)
		w.Scheds, w.Cfgs = sched("gto")
	case "idle_latency":
		w.Apps = chainApps(rng, scale)
		w.Scheds, w.Cfgs = sched("gto")
	case "paper_sweep":
		w.Mode, w.Fig10 = Harness, true
		w.Apps, err = sensitive(scale)
		w.Scheds, w.Cfgs = sched("gto", "rba")
	case "guarded_sweep":
		w.Mode = Guarded
		w.Apps, err = sensitive(scale)
		w.Scheds, w.Cfgs = sched("rba")
	default:
		return nil, fmt.Errorf("workload: unknown workload %q (have %v)", name, Names)
	}
	if err != nil {
		return nil, err
	}
	sort.Slice(w.Apps, func(i, j int) bool { return w.Apps[i].Name < w.Apps[j].Name })
	w.Order = rng.Perm(len(w.Apps))
	return w, nil
}

// scaled shrinks n by scale, never below 1.
func scaled(n int, scale float64) int {
	if s := int(float64(n)*scale + 0.5); s > 1 {
		return s
	}
	return 1
}

// jitter returns n moved by at most d either way, then shrunk by scale —
// in that order, so that a small build's work moves by the same share as
// the full build's (set-up runs a cell of a tenth-scale build: ±1 on nine
// iterations would move setup_s by a tenth from seed to seed). Seeds
// differ only by such small amounts of work, in the address streams that
// follow from them, and in the order a pass visits its cells: a cell's
// host cost per instruction depends on grid shape, mix and occupancy, so
// changing those with the seed would make runs at different seeds
// incomparable.
func jitter(rng *rand.Rand, n, d int, scale float64) int {
	return scaled(n-d+rng.Intn(2*d+1), scale)
}

func app(p workloads.Profile) workloads.App {
	if err := p.Validate(); err != nil {
		panic(fmt.Sprintf("workload: generated profile invalid: %v", err)) // a bug in this file, not an input error
	}
	return workloads.App{Name: p.Name, Suite: "benchmark", Kernels: []*gpu.Kernel{p.Kernel()}}
}

// denseApps: three register-resident kernels, one per operand layout,
// at 48 resident warps per SM (40 regs/thread × 8-warp blocks). No global
// or shared accesses, so L1 sees nothing and the device never idles long
// enough to fast-forward.
func denseApps(rng *rand.Rand, scale float64) []workloads.App {
	shapes := []struct {
		name string
		mode workloads.OperandMode
		ilp  int
		fmas int
	}{
		{"dense-clustered", workloads.OperandsClustered, 4, 6},
		{"dense-spread", workloads.OperandsSpread, 3, 6},
		{"dense-narrow", workloads.OperandsNarrow, 2, 5},
	}
	var apps []workloads.App
	for _, s := range shapes {
		apps = append(apps, app(workloads.Profile{
			Name: s.name, Blocks: 64, WarpsPerBlock: 8, RegsPerThread: 36,
			Iters: jitter(rng, 88, 1, scale), ILP: s.ilp, FMAs: s.fmas, IAdds: 2,
			OperandMode: s.mode,
		}))
	}
	return apps
}

// GatherFootprints returns mem_bound's three gather working sets in
// bytes, chosen against the modelled caches: three quarters of one SM's
// L1, three quarters of the shared L2, and five times the L2.
func GatherFootprints(cfg *config.GPU) [3]uint32 {
	l1, l2 := uint32(cfg.L1KBPerSM)<<10, uint32(cfg.L2KB)<<10
	return [3]uint32{l1 * 3 / 4, l2 * 3 / 4, l2 * 5}
}

// gatherApps: divergent gathers (8 lines per warp access, kernel-shared
// footprint) at the three footprints, and one coalesced streaming
// load+store kernel that loads the same layer through its bandwidth
// channels instead of its MSHRs.
func gatherApps(rng *rand.Rand, scale float64) []workloads.App {
	base := exp.Base()
	foot := GatherFootprints(&base)
	var apps []workloads.App
	for i, tier := range []string{"l1", "l2", "dram"} {
		// A few lines of footprint jitter move every address of the stream.
		fp := foot[i] + uint32(rng.Intn(8))*128
		apps = append(apps, app(workloads.Profile{
			Name: "gather-" + tier, Blocks: 16, WarpsPerBlock: 8, RegsPerThread: 32,
			Iters: jitter(rng, []int{200, 120, 36}[i], []int{1, 1, 0}[i], scale), ILP: 2, FMAs: 2, Loads: 2,
			LoadTrait: isa.MemTrait{Pattern: isa.PatRandom, Footprint: fp, Shared: true, Divergence: 8},
		}))
	}
	stream := isa.MemTrait{Pattern: isa.PatCoalesced, Footprint: 4 << 20, Shared: true}
	apps = append(apps, app(workloads.Profile{
		Name: "stream-copy", Blocks: 32, WarpsPerBlock: 8, RegsPerThread: 32,
		Iters: jitter(rng, 400, 2, scale), ILP: 2, FMAs: 1, Loads: 1, LoadTrait: stream, Stores: 1, StoreTrait: stream,
	}))
	return apps
}

// chainApps: each warp walks a chain of dependent divergent loads, each
// consumed by an FMA before the next can issue (the shape of gpu's
// memLatencyProgram test kernel). Two small blocks on four SMs: half the
// device is empty and the rest waits on DRAM round-trips, so nearly every
// cycle has nothing to issue. Warp counts are fixed per cell (three at
// one line per access, two at two) because each extra warp or line costs
// fast-forward share; the seed only jitters the chain length.
func chainApps(rng *rand.Rand, scale float64) []workloads.App {
	var apps []workloads.App
	for _, s := range []struct {
		div   uint8
		warps int
	}{{1, 3}, {2, 2}} {
		chain := jitter(rng, 16000, 80, scale)
		b := program.NewBuilder()
		b.Loop(int64(chain), func(lb *program.Builder) {
			lb.LDG(4, 1, isa.MemTrait{Pattern: isa.PatRandom, Footprint: 1 << 26, Divergence: s.div})
			lb.FMA(5, 4, 4, 5)
		})
		p := b.MustBuild()
		name := fmt.Sprintf("chain-div%d", s.div)
		apps = append(apps, workloads.App{
			Name: name, Suite: "benchmark",
			Kernels: []*gpu.Kernel{{
				Name: name, Blocks: 2, WarpsPerBlock: s.warps, RegsPerThread: 16,
				WarpProgram: func(block, warp int) *program.Program { return p },
			}},
		})
	}
	return apps
}

// sensitive rebuilds the Table III subset from the suite constructors.
// workloads.Sensitive memoises the whole 112-app catalogue; going to the
// constructors keeps set-up un-memoised, so setup_s sees what a fresh
// process pays.
func sensitive(scale float64) ([]workloads.App, error) {
	all := append(workloads.TPCH(false), workloads.TPCH(true)...)
	for _, build := range []func() ([]workloads.App, error){
		workloads.CuGraph, workloads.Rodinia, workloads.Parboil,
		workloads.Polybench, workloads.DeepBench, workloads.Cutlass,
	} {
		suite, err := build()
		if err != nil {
			return nil, err
		}
		all = append(all, suite...)
	}
	var out []workloads.App
	for _, a := range all {
		if a.Sensitive {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out[:scaled(len(out), scale)], nil
}
