package exp

import (
	"fmt"
	"slices"

	"repro/internal/config"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// The designs several figures share. One definition each makes the
// sharing visible: a cell (design × application) two figures both name is
// one cell, simulated once (runner.go).
var (
	base       = design{"base", Base()}
	fc         = design{"fully-connected", FC()}
	rba        = design{"rba", Base().WithScheduler(config.SchedRBA)}
	shuffle    = design{"shuffle", Base().WithAssign(config.AssignShuffle)}
	srr        = design{"srr", Base().WithAssign(config.AssignSRR)}
	shuffleRBA = design{"shuffle+rba", rba.cfg.WithAssign(config.AssignShuffle)}
)

// registry is the evaluation, in paper order: every experiment ID is
// spelled here and nowhere else. A sweep-shaped figure is a study (data);
// the micro and traced figures are code (micro.go). To add an experiment,
// add a row.
var registry = []struct {
	id  string
	exp runner
}{
	{"sec1effects", coded(sec1Effects)},
	// Figure 1: what partitioning costs, on all applications.
	{"fig1", study{
		title:   "Fully-connected SM speedup over 4-way partitioned V100 (112 apps)",
		apps:    workloads.All,
		designs: []design{base, fc},
		summary: geomean,
		notes:   []string{fmt.Sprintf("paper: %.1f%% average speedup for the fully-connected SM", pct(Paper("fig1", "fully-connected")))},
	}},
	{"fig3", coded(fig3)},
	{"fig8", coded(fig8)},
	// Figure 9: the combined designs against the fully-connected SM.
	{"fig9", study{
		title:   "Design speedup on all 112 applications vs GTO+RR",
		apps:    workloads.All,
		designs: []design{base, shuffleRBA, {"srr+rba", rba.cfg.WithAssign(config.AssignSRR)}, fc},
		summary: geomean,
		notes: []string{fmt.Sprintf("paper: Shuffle+RBA %.1f%% vs fully-connected %.1f%% average",
			pct(Paper("fig9", "shuffle+rba")), pct(Paper("fig9", "fully-connected")))},
	}},
	// Figure 10: the partitioning-sensitive subset (Table III), with
	// register bank stealing [36] and doubled collector units.
	{"fig10", study{
		title:   "Design speedup on partitioning-sensitive applications vs GTO+RR",
		apps:    workloads.Sensitive,
		designs: []design{base, rba, shuffle, srr, shuffleRBA, cus(4), {"bank-steal", Base().WithBankStealing()}, fc},
		summary: geomean,
		notes: []string{fmt.Sprintf("paper: RBA %.1f%%, CU doubling %.1f%%, bank stealing <%.0f%% average",
			pct(Paper("fig10", "rba")), pct(Paper("fig10", "4cu")), pct(Paper("fig10", "bank-steal")))},
	}},
	// Figure 11: RBA *on top of* the fully-connected SM. The fold adds the
	// paper's selection — the apps where RBA beats fully-connected.
	{"fig11", study{
		title:   "RBA on a fully-connected SM, RF-sensitive apps (speedup vs partitioned GTO+RR)",
		apps:    workloads.RFSensitive,
		designs: []design{base, fc, {"fc+rba", FC().WithScheduler(config.SchedRBA)}, {"rba(partitioned)", rba.cfg}},
		summary: geomean,
		fold:    fig11Fold,
	}},
	// Figure 12: collector-unit scaling versus RBA, against 2 CUs (Base).
	{"fig12", study{
		title:   "CU scaling speedup (normalized to 2 CUs/sub-core) vs RBA and fully-connected",
		apps:    workloads.Sensitive,
		designs: []design{cus(2), cus(1), cus(4), cus(8), cus(16), rba, fc},
		summary: geomean,
		notes: []string{fmt.Sprintf("paper: CU scaling %+.1f%%/%+.1f%%/%+.1f%% for 4/8/16 CUs; diminishing beyond 8",
			pct(Paper("fig12", "4cu")), pct(Paper("fig12", "8cu")), pct(Paper("fig12", "16cu")))},
	}},
	{"fig13", coded(fig13)},
	{"fig14", coded(fig14)},
	{"fig15", tpch("fig15", "tpch-c", "compressed")},
	{"fig16", tpch("fig16", "tpch-u", "uncompressed")},
	// Figure 17: issue imbalance itself.
	{"fig17", study{
		title:   "CoV of per-sub-core issued instructions, uncompressed TPC-H",
		apps:    suites("tpch-u"),
		designs: []design{base, srr, shuffle},
		columns: []column{
			{name: "rr", of: "base", metric: (*stats.Run).IssueCoV},
			{name: "srr", of: "srr", metric: (*stats.Run).IssueCoV},
			{name: "shuffle", of: "shuffle", metric: (*stats.Run).IssueCoV},
		},
		summary: mean,
		notes:   []string{fmt.Sprintf("paper: SRR reduces mean CoV from %.2f to %.2f", Paper("fig17", "rr"), Paper("fig17", "srr"))},
	}},
	{"fig18", fig18()},
	{"sec5cu", coded(sec5CU)},
	// Section VI-B4: the arbiter queue-length tap that feeds RBA's scores,
	// delayed by 0 to 20 cycles.
	{"sec6b4", study{
		title:   "RBA speedup vs GTO as the score-update latency grows",
		apps:    workloads.RFSensitive,
		designs: []design{base, scoreLatency(0), scoreLatency(5), scoreLatency(10), scoreLatency(20)},
		summary: geomean,
		notes: []string{
			fmt.Sprintf("paper: <%.1f%% average degradation from 0 to 20 cycles of staleness", Paper("sec6b4", "lat0-lat20")*100),
			"here: synthetic workloads have more volatile bank pressure than SASS traces, so staleness",
			"costs several points of RBA's gain — but stale RBA stays at or above GTO (partial reproduction)",
		},
	}},
	// Section VI-B5: each RBA against GTO at its own bank count.
	{"sec6b5", study{
		title:   "RBA benefit at 2 vs 4 banks per sub-core (speedup over same-bank GTO)",
		apps:    workloads.Sensitive,
		designs: []design{base, rba, {"gto@4banks", Base().WithBanks(4)}, {"rba@4banks", rba.cfg.WithBanks(4)}},
		columns: []column{
			{name: "rba@2banks", of: "rba", ref: "base"},
			{name: "rba@4banks", of: "rba@4banks", ref: "gto@4banks"},
		},
		summary: geomean,
		notes: []string{fmt.Sprintf("paper: RBA's average gain shrinks from %.1f%% to %.1f%% when banks double",
			pct(Paper("sec6b5", "rba@2banks")), pct(Paper("sec6b5", "rba@4banks")))},
	}},
	// LRR is the classic alternative baseline: RBA's gain is not an
	// artifact of a weak one.
	{"abl-sched", study{
		title:   "Warp scheduler ablation (speedup vs GTO)",
		apps:    workloads.Sensitive,
		designs: []design{base, {"lrr", Base().WithScheduler(config.SchedLRR)}, rba},
		summary: geomean,
		notes:   []string{"GTO is the stronger baseline; RBA's gain is on top of it"},
	}},
	// Shuffle's hash table (Section IV-B3); 4 entries is the default.
	{"abl-table", study{
		title:   "Shuffle hash-table size: 4 vs 16 entries (speedup vs RR)",
		apps:    suites("tpch-u", "tpch-c"),
		designs: []design{base, {"4-entry", shuffle.cfg}, {"16-entry", hash16(shuffle.cfg)}},
		summary: mean,
		notes:   []string{fmt.Sprintf("paper: 16-entry within %.0f%% of 4-entry across all suites", pct(Paper("abl-table", "16/4-entry")))},
	}},
	// Volta's plain reg-mod-banks mapping versus this model's default, a
	// per-warp-slot scrambled one, which de-correlates co-resident warps'
	// bank pressure: RBA's problem attacked from the mapping side.
	{"abl-swizzle", study{
		title:   "Bank-mapping ablation (speedup vs swizzled GTO)",
		apps:    workloads.RFSensitive,
		designs: []design{base, {"plain-gto", plainMap(base.cfg)}, {"swizzled-rba", rba.cfg}, {"plain-rba", plainMap(rba.cfg)}},
		summary: geomean,
		notes:   []string{"the scrambled mapping is itself worth performance; RBA adds scheduling on top"},
	}},
	// 1 (monolithic), 2 (Maxwell/Pascal-style) or 4 (Volta/Ampere)
	// sub-cores: the trend that motivated sub-cores (Section II-A).
	{"abl-partition", study{
		title:   "Partitioning degree at constant capacity (speedup vs 4 sub-cores)",
		apps:    workloads.Sensitive,
		designs: []design{{"4-subcores", partitioned(4)}, {"2-subcores", partitioned(2)}, {"monolithic", partitioned(1)}},
		summary: geomean,
		notes:   []string{"halving the partitioning recovers part of the monolithic SM's advantage"},
	}},
}

// suites returns an app set: the named suites' applications, concatenated
// in the order given.
func suites(names ...string) func() ([]workloads.App, error) {
	return func() ([]workloads.App, error) {
		var apps []workloads.App
		for _, n := range names {
			s, err := workloads.BySuite(n)
			if err != nil {
				return nil, err
			}
			apps = append(apps, s...)
		}
		return apps, nil
	}
}

// tpch is Figures 15/16: the designs on one TPC-H suite.
func tpch(id, suite, variant string) study {
	return study{
		title:   "TPC-H (" + suite + ") design speedup vs GTO+RR",
		apps:    suites(suite),
		designs: []design{base, rba, shuffle, srr, fc},
		summary: mean,
		notes: []string{fmt.Sprintf("paper: SRR %+.1f%%, Shuffle %+.1f%% average (%s)",
			pct(Paper(id, "srr")), pct(Paper(id, "shuffle")), variant)},
	}
}

// fig11Fold is the default projection plus the paper's selection: the
// fully-connected SM's geomean gain, without and with RBA, over the apps
// where partitioned RBA beats it (rbaWins).
func fig11Fold(s study, t *Table, apps []workloads.App, runs [][]*stats.Run) {
	s.rows(t, apps, runs)
	t.Note("apps where RBA beats FC: FC geomean %.3f -> FC+RBA %.3f (paper: %.3f -> %.3f)",
		rbaWins(0)(t), rbaWins(1)(t), Paper("fig11", "fc"), Paper("fig11", "fc+rba"))
}

// fig18 is Figure 18: how many partitioned SMs match a fully-connected
// device on compute-bound applications (the paper's crossings are targets
// read by crossing). The study sweeps partitioned SM counts (total memory
// bandwidth held constant); its fold prints one row per SM count — the
// geomean, over the apps, of that count's three speedups against 4
// partitioned SMs.
func fig18() study {
	smCounts := []int{4, 5, 6, 7}
	var designs []design
	for _, n := range smCounts {
		designs = append(designs,
			design{fmt.Sprintf("part@%d", n), Base().WithSMs(n)},
			design{fmt.Sprintf("ours@%d", n), shuffleRBA.cfg.WithSMs(n)})
	}
	designs = append(designs, design{"fc@4", fc.cfg})
	return study{
		title: "SM-count sensitivity: partitioned SMs needed to match 4 fully-connected SMs",
		apps: func() ([]workloads.App, error) {
			rf, err := workloads.RFSensitive()
			// cuGraph is memory-bound; the rest scales with the SM count.
			return slices.DeleteFunc(rf, func(a workloads.App) bool { return a.Suite == "cugraph" }), err
		},
		designs: designs,
		columns: []column{{name: "partitioned"}, {name: "partitioned+ours"}, {name: "fully-connected@4"}},
		fold: func(s study, t *Table, apps []workloads.App, runs [][]*stats.Run) {
			gain := func(of string) float64 {
				v := make([]float64, len(apps))
				for i := range apps {
					v[i] = Speedup(runs[i][s.design("part@4")].Cycles, runs[i][s.design(of)].Cycles)
				}
				return stats.GeoMean(v)
			}
			for _, n := range smCounts {
				t.AddRow(fmt.Sprintf("SMs=%d", n), gain(fmt.Sprintf("part@%d", n)), gain(fmt.Sprintf("ours@%d", n)), gain("fc@4"))
			}
		},
		notes: []string{
			fmt.Sprintf("paper: %.0f partitioned SMs ≈ %d fully-connected; %.0f with the proposed techniques",
				Paper("fig18", "partitioned")*paperSMs, paperSMs, Paper("fig18", "partitioned+ours")*paperSMs),
			"read: the SM count where a column crosses fully-connected@4 is the equivalence point",
		},
	}
}

// cus is the baseline with n collector units per sub-core; cus(2) is Base.
func cus(n int) design { return design{fmt.Sprintf("%dcu", n), Base().WithCUs(n)} }

// scoreLatency is RBA with its score tap delayed by l cycles.
func scoreLatency(l int) design {
	d := design{fmt.Sprintf("lat%d", l), rba.cfg}
	d.cfg.RBAScoreLatency = l
	return d
}

// hash16 gives Shuffle a 16-entry hash-function table.
func hash16(c config.GPU) config.GPU {
	c.HashTableEntries = 16
	return c
}

// plainMap switches c to Volta's plain reg-mod-banks register mapping.
func plainMap(c config.GPU) config.GPU {
	c.BankSwizzle = false
	return c
}

// partitioned is the baseline SM cut into d sub-cores at constant total
// capacity; partitioned(4) is Base.
func partitioned(d int) config.GPU {
	g := Base()
	g.SubCoresPerSM = d
	g.SchedulersPerSubCore = 4 / d
	g.BanksPerSubCore = 8 / d
	g.CollectorUnitsPerSubCore = 8 / d
	g.DispatchPortsPerSubCore = 8 / d
	g.RegFileKBPerSubCore = 256 / d
	g.FP32LanesPerSubCore = 64 / d
	g.IntLanesPerSubCore = 64 / d
	g.SFULanesPerSubCore = 16 / d
	g.TensorPerSubCore = 4 / d
	return g
}
