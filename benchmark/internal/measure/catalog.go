package measure

// Def names one metric: its unit, which direction is better, and — for
// an end-to-end metric — the share of the parent's median by which it may
// worsen before a change counts as a regression. BENCHMARK.json at the
// repository root lists the same names, units, directions and bounds; a
// test keeps the two in step.
type Def struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Bound  float64
	// Kind says how a per-layer metric is obtained: "t" host time from
	// spans of the traced run, "c" an exact count from the simulated
	// statistics, "d" a standalone driver over the layer's exported API.
	Kind string
	Doc  string
}

// EndToEnd are the metrics a user of the simulator sees, measured with
// tracing off. All host time; the three timings are scaled to seconds of
// the quiet machine (calib.go).
//
// The bounds of the two speed metrics are about twice the widest spread
// (inter-quartile range over median, ten runs at ten seeds) measured while
// the sandbox was being slowed down: 8 % for sim_kinstr_per_s, 12 % for
// slowest_cell_s, against 1-3 % and 2-5 % on the quiet machine (README,
// "Steadiness"). setup_s and peak_rss_mb keep the quarter the issue gave
// them.
var EndToEnd = []Def{
	{Name: "sim_kinstr_per_s", Unit: "kinstr/s", Better: "higher", Bound: 0.15,
		Doc: "simulated warp instructions of a pass / pass wall, each cell at its median scaled wall over its readings"},
	{Name: "slowest_cell_s", Unit: "s", Better: "lower", Bound: 0.20,
		Doc: "median scaled wall of the slowest cell: the straggler a parallel sweep or a single subcoresim user waits for"},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Doc: "un-memoised workload construction + first gpu.New + warm-up cell, scaled, median over repeated set-ups"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25,
		Doc: "VmHWM of the workload's process at exit"},
}

// Fidelity metrics are exact, simulated-time values. They are printed by
// every run and listed with the per-layer metrics in BENCHMARK.json (an
// end-to-end metric there must be non-zero on every workload, and these
// are zero by design: no failed cells, no Fig 10 set outside paper_sweep).
// Their bounds are enforced by the benchmark itself, through `correct`.
var Fidelity = []Def{
	{Name: "rba_gain_err_pp", Unit: "pp", Better: "lower", Kind: "c",
		Doc: "|geomean(cycles_gto/cycles_rba) - 1.111| x 100 against Fig 10's +11.1%; paper_sweep only, 0 elsewhere"},
	{Name: "cells_failed_pct", Unit: "%", Better: "lower", Kind: "c",
		Doc: "cells that faulted or failed a correctness check / cells attempted"},
}

// PerLayer are the metrics of single layers (layer = package name), from
// the traced run. They carry no bound. Host times (kinds t and d) are
// scaled like the end-to-end timings.
var PerLayer = []Def{
	{Name: "workloads.build_ms", Unit: "ms", Better: "lower", Kind: "t", Doc: "workloads.build spans of the traced pass: kernels rebuilt from the seed, every warp program materialised"},
	{Name: "workloads.dyn_kinstr", Unit: "kinstr", Better: "higher", Kind: "c", Doc: "dynamic warp instructions of one pass"},

	{Name: "gpu.new_us", Unit: "us", Better: "lower", Kind: "t", Doc: "mean gpu.New span"},
	{Name: "gpu.run_ns_per_cycle", Unit: "ns/cycle", Better: "lower", Kind: "t", Doc: "RunKernels time / simulated cycles, traced direct pass"},
	{Name: "gpu.run_ns_per_ticked_cycle", Unit: "ns/cycle", Better: "lower", Kind: "t", Doc: "RunKernels time / cycles not fast-forwarded"},
	{Name: "gpu.sim_cycles", Unit: "count", Better: "lower", Kind: "c", Doc: "simulated cycles of one pass (must not move under a speed-only change)"},
	{Name: "gpu.sim_ipc", Unit: "instr/cycle", Better: "higher", Kind: "c", Doc: "instructions / cycles over the pass"},
	{Name: "gpu.ff_cycles_pct", Unit: "%", Better: "higher", Kind: "c", Doc: "fast-forwarded share of simulated cycles"},
	{Name: "gpu.occupancy_warps", Unit: "warps/SM", Better: "higher", Kind: "c", Doc: "mean resident warps per SM"},
	{Name: "gpu.allocs_per_cell", Unit: "count", Better: "lower", Kind: "c", Doc: "heap allocations per cell (gpu.New + RunKernels)"},
	{Name: "gpu.alloc_kb_per_cell", Unit: "KB", Better: "lower", Kind: "c", Doc: "heap bytes allocated per cell"},

	{Name: "smcore.tick_ns", Unit: "ns", Better: "lower", Kind: "d", Doc: "SM.Tick, one SM stepped by the driver"},
	{Name: "smcore.idle_tick_ns", Unit: "ns", Better: "lower", Kind: "d", Doc: "SM.Tick over batches that issued nothing and over the drained machine"},
	{Name: "smcore.next_event_ns", Unit: "ns", Better: "lower", Kind: "d", Doc: "SM.NextEvent probed after idle batches"},
	{Name: "smcore.cpi_issue_pct", Unit: "%", Better: "higher", Kind: "c", Doc: "CPI stack: cycles that issued"},
	{Name: "smcore.cpi_bank_conflict_pct", Unit: "%", Better: "lower", Kind: "c", Doc: "CPI stack: collector units hostage to bank conflicts"},
	{Name: "smcore.cpi_cu_full_pct", Unit: "%", Better: "lower", Kind: "c", Doc: "CPI stack: no free collector unit or execution port, banks quiet"},
	{Name: "smcore.cpi_scoreboard_pct", Unit: "%", Better: "lower", Kind: "c", Doc: "CPI stack: every candidate had a register hazard"},
	{Name: "smcore.cpi_memory_pct", Unit: "%", Better: "lower", Kind: "c", Doc: "CPI stack: blocked on the memory path"},
	{Name: "smcore.cpi_barrier_pct", Unit: "%", Better: "lower", Kind: "c", Doc: "CPI stack: parked at a barrier"},
	{Name: "smcore.cpi_imbalance_pct", Unit: "%", Better: "lower", Kind: "c", Doc: "CPI stack: sub-core empty while the SM holds work"},
	{Name: "smcore.cpi_idle_pct", Unit: "%", Better: "lower", Kind: "c", Doc: "CPI stack: SM holds no warps; the eight shares sum to 100"},
	{Name: "smcore.issue_cov", Unit: "ratio", Better: "lower", Kind: "c", Doc: "coefficient of variation of per-sub-core issue, mean over cells"},

	{Name: "regfile.collector_tick_ns", Unit: "ns", Better: "lower", Kind: "d", Doc: "Collector.Allocate + Tick per cycle on the workload's operand streams"},
	{Name: "regfile.reads_per_instr", Unit: "ratio", Better: "lower", Kind: "c", Doc: "register reads granted / instructions"},
	{Name: "regfile.bank_conflicts_per_kinstr", Unit: "1/kinstr", Better: "lower", Kind: "c", Doc: "bank conflicts / 1000 instructions"},

	{Name: "mem.access_ns", Unit: "ns", Better: "lower", Kind: "d", Doc: "Hierarchy.AccessGlobal per line transaction, replay of the workload's access traits (0: no global accesses)"},
	{Name: "mem.next_event_ns", Unit: "ns", Better: "lower", Kind: "d", Doc: "Hierarchy.NextEvent with the replay's misses outstanding"},
	{Name: "mem.l1_accesses_per_kinstr", Unit: "1/kinstr", Better: "lower", Kind: "c", Doc: "L1 accesses / 1000 instructions"},
	{Name: "mem.l1_hit_pct", Unit: "%", Better: "higher", Kind: "c", Doc: "L1 hit rate over the pass"},
	{Name: "mem.l2_hit_pct", Unit: "%", Better: "higher", Kind: "d", Doc: "L2 hit rate of the replay (stats.Run carries no L2 counters)"},

	{Name: "core.pick_ns", Unit: "ns", Better: "lower", Kind: "d", Doc: "WarpScheduler.Pick at 16 candidates, GTO and RBA in equal parts"},
	{Name: "core.score_ns", Unit: "ns", Better: "lower", Kind: "d", Doc: "core.Score on a three-source instruction"},

	{Name: "harness.self_us_per_cell", Unit: "us", Better: "lower", Kind: "t", Doc: "(harness.Run wall - sum of Result.Wall) / cells, unguarded"},
	{Name: "harness.guard_overhead_pct", Unit: "%", Better: "lower", Kind: "t", Doc: "guarded harness pass vs the same cells unguarded"},
	{Name: "harness.snapshot_frames", Unit: "count", Better: "lower", Kind: "c", Doc: "snapshot frames the guarded pass wrote"},
	{Name: "harness.checkpoint_kb", Unit: "KB", Better: "lower", Kind: "c", Doc: "checkpoint file of the guarded pass"},

	{Name: "snapshot.write_us", Unit: "us", Better: "lower", Kind: "t", Doc: "GPU.WriteSnapshot of mid-kernel states captured by the benchmark's own hook on the longest cell"},
	{Name: "snapshot.restore_us", Unit: "us", Better: "lower", Kind: "t", Doc: "GPU.Restore of those frames into fresh devices"},
	{Name: "snapshot.kb", Unit: "KB", Better: "lower", Kind: "c", Doc: "mean frame size"},
	{Name: "audit.check_us", Unit: "us", Better: "lower", Kind: "t", Doc: "GPU.AuditCheck on the same restored states"},

	{Name: "stats.digest_us", Unit: "us", Better: "lower", Kind: "t", Doc: "stats.Run to JSON + SHA-256, mean per cell"},
	{Name: "bench.write_us", Unit: "us", Better: "lower", Kind: "t", Doc: "bench.FromResult(...).WriteFile of the guarded pass"},
	{Name: "trace.enabled_overhead_pct", Unit: "%", Better: "lower", Kind: "t", Doc: "cheapest cell with an all-SM tracer attached vs without"},
	{Name: "metrics.enabled_overhead_pct", Unit: "%", Better: "lower", Kind: "t", Doc: "cheapest cell with a metrics registry attached vs without"},

	{Name: "benchmark.trace_overhead_pct", Unit: "%", Better: "lower", Kind: "t", Doc: "cell time of the traced direct pass vs the untraced pass"},
}

// Fig 10 reports RBA at +11.1% over GTO on the sensitive subset. The
// repository holds no silicon reference; this paper figure is the only
// thing the model is compared to.
const (
	fig10RBAGain = 1.111
	// RBAGainErrCeilingPP is the reproduction's error today (4.55 pp, the
	// +6.6% of EXPERIMENTS.md's fig10 row) plus the 0.25 pp by which it may
	// worsen; paper_sweep is incorrect above it. A change that improves
	// fidelity lowers this ceiling in its own benchmark change.
	RBAGainErrCeilingPP = 4.80
)
