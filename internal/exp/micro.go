package exp

import (
	"fmt"
	"math"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/isa"
	"repro/internal/power"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// fig3 reproduces Figure 3: the FMA microbenchmark's slowdown under the
// three Fig. 4 thread-block layouts, on a partitioned (Volta/Ampere-like)
// and a monolithic (Kepler-like) SM. Each value is execution time
// normalized to the baseline layout on the same device. Paper: the
// unbalanced layout runs 3.9x slower on the A100 and ~1x on Kepler.
func fig3(id string) (*Table, error) {
	const fmas = 1024
	devices := []design{
		{"partitioned(volta/ampere)", Base()},
		{"monolithic(kepler)", FC()},
	}
	t := &Table{
		ID:      id,
		Title:   "FMA microbenchmark: execution time normalized to the baseline layout",
		Columns: []string{"baseline", "balanced", "unbalanced"},
	}
	for _, d := range devices {
		var times [3]float64
		for li, layout := range []workloads.FMALayout{workloads.FMABaseline, workloads.FMABalanced, workloads.FMAUnbalanced} {
			r, err := runKernels(d.cfg, nil, workloads.FMAMicro(layout, fmas))
			if err != nil {
				return nil, err
			}
			times[li] = float64(r.Cycles)
		}
		t.AddRow(d.name, 1.0, times[1]/times[0], times[2]/times[0])
	}
	t.Note("paper: unbalanced is 3.9x on A100, ~3.5x on V100, ~1x on Kepler; balanced ~1x everywhere")
	return t, nil
}

// fig8 reproduces Figure 8: performance of the unbalanced FMA kernel as
// the imbalance magnitude scales, for each sub-core assignment design
// (speedup over round robin at the same scale). Paper: SRR balances the
// 1-in-4 pattern perfectly; Shuffle's randomization is increasingly
// suboptimal as imbalance grows but still far ahead of round robin.
func fig8(id string) (*Table, error) {
	scales := []int{1, 2, 4, 8}
	cfgs := []config.GPU{Base(), srr.cfg, shuffle.cfg}
	t := &Table{
		ID:      id,
		Title:   "Unbalanced FMA as imbalance scales: speedup vs round robin",
		Columns: []string{"srr", "shuffle"},
	}
	for _, sc := range scales {
		k := workloads.FMAImbalanceScaled(sc)
		var cycles [3]int64
		for ci, cfg := range cfgs {
			r, err := runKernels(cfg, nil, k)
			if err != nil {
				return nil, err
			}
			cycles[ci] = r.Cycles
		}
		t.AddRow(fmt.Sprintf("scale=%d", sc),
			Speedup(cycles[0], cycles[1]),
			Speedup(cycles[0], cycles[2]))
	}
	t.Note("paper: SRR stays optimal for the 1-in-4 pattern; Shuffle trails SRR and the gap grows with imbalance")
	return t, nil
}

// referenceCycles is the stand-in for the paper's in-silicon V100
// measurements of the seven RF-stress microbenchmarks (Section V). It is
// an analytic steady-state model, derived without reference to the
// simulator: per sub-core, throughput is the tightest of the FP32
// initiation limit, the issue-port limit, and the bank-bandwidth limit,
// plus a pipeline ramp.
func referenceCycles(variant int, cfg config.GPU) float64 {
	k := workloads.RFStressMicro(variant)
	// Dynamic instructions per sub-core: warps divide evenly; each block
	// has identical warps.
	totalInstr := float64(k.Instructions())
	perSubCore := totalInstr / float64(cfg.NumSMs*cfg.SubCoresPerSM)

	// Average register reads per instruction across the program.
	prog := k.WarpProgram(0, 0)
	cur := prog.Cursor()
	var reads, instrs float64
	for {
		in, ok := cur.Next()
		if !ok {
			break
		}
		instrs++
		reads += float64(in.NumSrcs())
	}
	avgReads := reads / instrs

	fp32 := 1.0 / float64(isa.InitiationInterval(cfg.FP32LanesPerSubCore))
	if cfg.FP32LanesPerSubCore > 16 {
		fp32 = float64(cfg.FP32LanesPerSubCore/16) / 2
	}
	issue := float64(cfg.SchedulersPerSubCore)
	bank := float64(cfg.BanksPerSubCore) / avgReads
	tp := math.Min(fp32, math.Min(issue, bank))
	const ramp = 300 // fill/drain and block-scheduling overhead
	return perSubCore/tp + ramp
}

// sec5CU reproduces the Section V collector-unit validation: cycle counts
// of the seven RF-stress microbenchmarks simulated with 1-4 CUs per
// sub-core, scored by mean absolute error against the silicon stand-in.
// Paper: 2 CUs/sub-core minimizes MAE at 16.2%; the worst configuration
// errs by 43%.
func sec5CU(id string) (*Table, error) {
	cus := []int{1, 2, 3, 4}
	t := &Table{
		ID:      id,
		Title:   "RF-stress microbenchmarks: simulated/reference cycle ratio per CU count",
		Columns: []string{"1cu", "2cu", "3cu", "4cu"},
	}
	errs := make([][]float64, len(cus))
	for v := 0; v < workloads.NumRFStressMicros; v++ {
		row := make([]float64, len(cus))
		for ci, n := range cus {
			cfg := Base().WithCUs(n)
			r, err := runKernels(cfg, nil, workloads.RFStressMicro(v))
			if err != nil {
				return nil, err
			}
			ref := referenceCycles(v, cfg)
			ratio := float64(r.Cycles) / ref
			row[ci] = ratio
			errs[ci] = append(errs[ci], math.Abs(ratio-1))
		}
		t.AddRow(fmt.Sprintf("rfstress-%d", v), row...)
	}
	mae := make([]float64, len(cus))
	for ci := range cus {
		mae[ci] = stats.Mean(errs[ci])
	}
	t.AddRow("MAE", mae...)
	t.Note("paper: 2 CUs/sub-core gives the lowest MAE (16.2%%) against silicon; worst config 43%%")
	return t, nil
}

// sec1Effects quantifies the four orthogonal partitioning effects of
// Section I with targeted microbenchmarks, reporting the fully-connected
// SM's speedup over the partitioned baseline for each, plus the cheap
// mitigation the paper proposes where one exists. The paper's finding:
// effects 1 (bank conflicts) and 2 (issue imbalance) dominate in
// practice; 3 (EU diversity) and 4 (register capacity) are real but
// second-order for most workloads.
func sec1Effects(id string) (*Table, error) {
	t := &Table{
		ID:      id,
		Title:   "The four partitioning effects: fully-connected speedup and proposed mitigation",
		Columns: []string{"fully-connected", "mitigation"},
	}
	fat, thin := workloads.RegCapacityPair()
	effects := []struct {
		label      string
		kernels    []*gpu.Kernel
		mitigation config.GPU
	}{
		{"1:bank-conflicts", []*gpu.Kernel{workloads.BankConflictMicro()}, rba.cfg},
		{"2:issue-imbalance", []*gpu.Kernel{workloads.FMAMicro(workloads.FMAUnbalanced, 1024)}, srr.cfg},
		{"3:eu-diversity", []*gpu.Kernel{workloads.EUDiverseMicro()}, srr.cfg},
		// No cheap mitigation is proposed for effect 4; its column repeats
		// the baseline.
		{"4:register-capacity", []*gpu.Kernel{fat, thin}, Base()},
	}
	for _, e := range effects {
		var cycles [3]int64
		for ci, cfg := range []config.GPU{Base(), FC(), e.mitigation} {
			r, err := runTogether(cfg, e.kernels...)
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", e.label, cfg.Name, err)
			}
			cycles[ci] = r.Cycles
		}
		t.AddRow(e.label, Speedup(cycles[0], cycles[1]), Speedup(cycles[0], cycles[2]))
	}
	t.Note("mitigations: RBA for effect 1, SRR for effects 2-3; effect 4 has no cheap fix (column = 1.0)")
	t.Note("paper: effects 1 and 2 account for the majority of sub-core performance loss in practice")
	t.Note("effect 4 measures ~1.0 here: round-robin placement keeps per-sub-core occupancy balanced, so")
	t.Note("fragmentation rarely strands capacity — matching the paper's finding that effects 3-4 are second-order")
	return t, nil
}

// fig13 reproduces Figure 13: normalized area and power of CU scaling
// versus the RBA additions (analytical model standing in for the paper's
// 45nm synthesis — see internal/power). Paper: 4 CUs cost +27% area and
// +60% power; RBA costs ~1% of each.
func fig13(id string) (*Table, error) {
	t := &Table{
		ID:      id,
		Title:   "Area and power vs baseline (2 CUs + 2 banks + scheduler)",
		Columns: []string{"area", "power"},
	}
	designs := []struct {
		label string
		d     power.Design
	}{
		{"2cu(base)", power.Design{CUs: 2, Banks: 2}},
		{"4cu", power.Design{CUs: 4, Banks: 2}},
		{"8cu", power.Design{CUs: 8, Banks: 2}},
		{"16cu", power.Design{CUs: 16, Banks: 2}},
		{"rba", power.Design{CUs: 2, Banks: 2, RBA: true}},
	}
	for _, d := range designs {
		a, p := power.Relative(d.d)
		t.AddRow(d.label, a, p)
	}
	t.Note("paper: 4 CUs => 1.27x area, 1.60x power; RBA => ~1.01x both")
	return t, nil
}

// fig14 reproduces Figure 14: per-cycle register-file read utilization of
// pb-mriq and rod-srad under GTO, RBA, and fully-connected. The paper
// plots full timelines; we report the summary statistics that carry its
// conclusions — mean reads/cycle (the red line) and the fraction of
// low-utilization cycles (<= 85 reads).
func fig14(id string) (*Table, error) {
	t := &Table{
		ID:      id,
		Title:   "Register-file reads per cycle on SM0 (mean / %cycles<=85 / p95)",
		Columns: []string{"mean", "low-frac", "p95"},
	}
	for _, name := range []string{"pb-mriq", "rod-srad"} {
		app, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, c := range []config.GPU{Base(), rba.cfg, FC()} {
			// The tracer's counter sampler at period 1 is the per-cycle
			// series: granted (warp-wide) reads on SM 0 each cycle (no ring).
			sampler := trace.OptionsFor(&c, 0)
			sampler.SamplePeriod = 1
			tr := trace.New(sampler)
			if _, err := runKernels(c, tr, app.Kernels...); err != nil {
				return nil, err
			}
			// Trim the idle head/tail (SM0 waiting on other SMs to
			// finish) so the mean reflects the application region, as the
			// paper's single-SM timelines do.
			reads := tr.Counters().RFReads
			for len(reads) > 0 && reads[0] == 0 {
				reads = reads[1:]
			}
			for len(reads) > 0 && reads[len(reads)-1] == 0 {
				reads = reads[:len(reads)-1]
			}
			low := 0
			vals := make([]float64, len(reads))
			for i, v := range reads {
				// 4-byte register reads, Fig 14's unit.
				vals[i] = float64(int(v) * c.WarpSize)
				if vals[i] <= 85 {
					low++
				}
			}
			frac := 0.0
			if len(vals) > 0 {
				frac = float64(low) / float64(len(vals))
			}
			t.AddRow(fmt.Sprintf("%s/%s", name, c.Name), stats.Mean(vals), frac, stats.Percentile(vals, 95))
		}
	}
	t.Note("paper: RBA raises rod-srad mean reads/cycle from 22.2 to 27.1, above fully-connected's 23.4")
	return t, nil
}
