package exp

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/power"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Fig11 reproduces Figure 11: applying RBA *on top of* the
// fully-connected SM in register-file-sensitive applications. Paper: the
// fully-connected SM's geomean gain rises from 6.1% to 19.6% with RBA in
// the apps where RBA beats fully-connected.
func Fig11() (*Table, error) {
	apps, err := workloads.RFSensitive()
	if err != nil {
		return nil, err
	}
	cfgs := []config.GPU{
		Base(),
		FC(),
		FC().WithScheduler(config.SchedRBA),
		Base().WithScheduler(config.SchedRBA),
	}
	cyc, err := Sweep(cfgs, apps)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig11",
		Title:   "RBA on a fully-connected SM, RF-sensitive apps (speedup vs partitioned GTO+RR)",
		Columns: []string{"fully-connected", "fc+rba", "rba(partitioned)"},
	}
	var fcWins, fcRbaWins []float64
	for i, a := range apps {
		fc := Speedup(cyc[i][0], cyc[i][1])
		fcRba := Speedup(cyc[i][0], cyc[i][2])
		rba := Speedup(cyc[i][0], cyc[i][3])
		t.AddRow(a.Name, fc, fcRba, rba)
		if rba > fc { // the paper's selection: apps where RBA outperforms FC
			fcWins = append(fcWins, fc)
			fcRbaWins = append(fcRbaWins, fcRba)
		}
	}
	t.GeoMeanRow("geomean")
	t.Note("apps where RBA beats FC: FC geomean %.3f -> FC+RBA %.3f (paper: 1.061 -> 1.196)",
		stats.GeoMean(fcWins), stats.GeoMean(fcRbaWins))
	return t, nil
}

// Fig12 reproduces Figure 12: collector-unit scaling versus RBA on the
// sensitive subset, normalized to 2 CUs per sub-core. Paper: +4.1%,
// +7.1%, +9.6% for 4/8/16 CUs; RBA lands between 4 and 8 CUs outside
// cuGraph and above fully-connected within cuGraph.
func Fig12() (*Table, error) {
	apps, err := workloads.Sensitive()
	if err != nil {
		return nil, err
	}
	cus := []int{1, 2, 4, 8, 16}
	var cfgs []config.GPU
	for _, n := range cus {
		cfgs = append(cfgs, Base().WithCUs(n))
	}
	cfgs = append(cfgs, Base().WithScheduler(config.SchedRBA), FC())
	cyc, err := Sweep(cfgs, apps)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig12",
		Title:   "CU scaling speedup (normalized to 2 CUs/sub-core) vs RBA and fully-connected",
		Columns: []string{"1cu", "4cu", "8cu", "16cu", "rba", "fully-connected"},
	}
	baseIdx := 1 // 2 CUs
	for i, a := range apps {
		base := cyc[i][baseIdx]
		t.AddRow(a.Name,
			Speedup(base, cyc[i][0]),
			Speedup(base, cyc[i][2]),
			Speedup(base, cyc[i][3]),
			Speedup(base, cyc[i][4]),
			Speedup(base, cyc[i][5]),
			Speedup(base, cyc[i][6]))
	}
	t.GeoMeanRow("geomean")
	t.Note("paper: CU scaling +4.1%%/+7.1%%/+9.6%% for 4/8/16 CUs; diminishing beyond 8")
	return t, nil
}

// Fig13 reproduces Figure 13: normalized area and power of CU scaling
// versus the RBA additions (analytical model standing in for the paper's
// 45nm synthesis — see internal/power). Paper: 4 CUs cost +27% area and
// +60% power; RBA costs ~1% of each.
func Fig13() (*Table, error) {
	t := &Table{
		ID:      "fig13",
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

// Fig14 reproduces Figure 14: per-cycle register-file read utilization of
// pb-mriq and rod-srad under GTO, RBA, and fully-connected. The paper
// plots full timelines; we report the summary statistics that carry its
// conclusions — mean reads/cycle (the red line) and the fraction of
// low-utilization cycles (<= 85 reads).
func Fig14() (*Table, error) {
	t := &Table{
		ID:      "fig14",
		Title:   "Register-file reads per cycle on SM0 (mean / %cycles<=85 / p95)",
		Columns: []string{"mean", "low-frac", "p95"},
	}
	for _, name := range []string{"pb-mriq", "rod-srad"} {
		app, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, c := range []config.GPU{
			Base(),
			Base().WithScheduler(config.SchedRBA),
			FC(),
		} {
			// The tracer's counter sampler at period 1 is the per-cycle
			// series: granted (warp-wide) reads on SM 0 each cycle.
			c.TraceSamplePeriod = 1
			g, err := gpu.New(c)
			if err != nil {
				return nil, err
			}
			tr := trace.New(trace.OptionsFor(&c, 0))
			g.SetTracer(tr)
			if err := g.RunKernels(app.Kernels, 0); err != nil {
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
			var sum float64
			for i, v := range reads {
				// 4-byte register reads, Fig 14's unit.
				vals[i] = float64(int(v) * c.WarpSize)
				sum += vals[i]
				if vals[i] <= 85 {
					low++
				}
			}
			mean, frac := 0.0, 0.0
			if len(vals) > 0 {
				mean = sum / float64(len(vals))
				frac = float64(low) / float64(len(vals))
			}
			t.AddRow(fmt.Sprintf("%s/%s", name, c.Name), mean, frac, stats.Percentile(vals, 95))
		}
	}
	t.Note("paper: RBA raises rod-srad mean reads/cycle from 22.2 to 27.1, above fully-connected's 23.4")
	return t, nil
}

// Sec6B4 reproduces the RBA score-update latency study (Section VI-B4):
// sweeping the delay on the arbiter queue-length tap from 0 to 20 cycles.
// Paper: <0.1% average performance loss; only ply-2Dcon exceeds 1%.
func Sec6B4() (*Table, error) {
	apps, err := workloads.RFSensitive()
	if err != nil {
		return nil, err
	}
	lats := []int{0, 5, 10, 20}
	var cfgs []config.GPU
	cfgs = append(cfgs, Base())
	for _, l := range lats {
		c := Base().WithScheduler(config.SchedRBA)
		c.RBAScoreLatency = l
		c.Name = fmt.Sprintf("%s-lat%d", c.Name, l)
		cfgs = append(cfgs, c)
	}
	cyc, err := Sweep(cfgs, apps)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "sec6b4",
		Title:   "RBA speedup vs GTO as the score-update latency grows",
		Columns: []string{"lat0", "lat5", "lat10", "lat20"},
	}
	for i, a := range apps {
		row := make([]float64, len(lats))
		for c := range lats {
			row[c] = Speedup(cyc[i][0], cyc[i][c+1])
		}
		t.AddRow(a.Name, row...)
	}
	t.GeoMeanRow("geomean")
	t.Note("paper: <0.1%% average degradation from 0 to 20 cycles of staleness")
	t.Note("here: synthetic workloads have more volatile bank pressure than SASS traces, so staleness")
	t.Note("costs several points of RBA's gain — but stale RBA stays at or above GTO (partial reproduction)")
	return t, nil
}

// Sec6B5 reproduces the bank-scaling sensitivity study (Section VI-B5):
// RBA's benefit with 2 versus 4 banks per sub-core. Paper: the average
// RBA gain on sensitive apps drops from 19.3% to 15.4% with 4 banks.
func Sec6B5() (*Table, error) {
	apps, err := workloads.Sensitive()
	if err != nil {
		return nil, err
	}
	cfgs := []config.GPU{
		Base(),
		Base().WithScheduler(config.SchedRBA),
		Base().WithBanks(4),
		Base().WithBanks(4).WithScheduler(config.SchedRBA),
	}
	cyc, err := Sweep(cfgs, apps)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "sec6b5",
		Title:   "RBA benefit at 2 vs 4 banks per sub-core (speedup over same-bank GTO)",
		Columns: []string{"rba@2banks", "rba@4banks"},
	}
	for i, a := range apps {
		t.AddRow(a.Name,
			Speedup(cyc[i][0], cyc[i][1]),
			Speedup(cyc[i][2], cyc[i][3]))
	}
	t.GeoMeanRow("geomean")
	t.Note("paper: RBA's average gain shrinks from 19.3%% to 15.4%% when banks double")
	return t, nil
}
