package repro

// One benchmark per reproduced table/figure. Each iteration regenerates
// the artifact end-to-end (workload synthesis, simulation sweep, table
// assembly), so `go test -bench=. -benchmem` both re-derives the paper's
// evaluation and measures the harness cost. Benchmarks report the
// headline metric of their figure as a custom unit.

import (
	"testing"

	"repro/internal/exp"
	"repro/internal/metrics"
	"repro/internal/power"
	"repro/internal/stats"
	"repro/internal/trace"
)

// colGeoMean pulls a column's per-app values (excluding summary rows) and
// returns its geometric mean.
func colGeoMean(b *testing.B, t *exp.Table, col string, summaryRows int) float64 {
	b.Helper()
	vals, err := t.Column(col)
	if err != nil {
		b.Fatal(err)
	}
	if len(vals) > summaryRows {
		vals = vals[:len(vals)-summaryRows]
	}
	return stats.GeoMean(vals)
}

// BenchmarkFig1FullyConnectedGap regenerates Figure 1: the speedup of a
// hypothetical fully-connected SM over the partitioned baseline on all
// 112 applications (paper: +13.2% average).
func BenchmarkFig1FullyConnectedGap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.Fig1()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(colGeoMean(b, t, "fully-connected", 1), "fc-speedup")
	}
}

// BenchmarkFig3HardwareImbalance regenerates Figure 3: FMA microbenchmark
// slowdowns under the Fig. 4 layouts on partitioned vs monolithic SMs
// (paper: 3.9x unbalanced on A100, ~1x on Kepler).
func BenchmarkFig3HardwareImbalance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.Fig3()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.Rows[0].Values[2], "partitioned-unbalanced-x")
	}
}

// BenchmarkFig8ImbalanceScaling regenerates Figure 8: unbalanced-FMA
// speedup of SRR and Shuffle over round robin as imbalance scales.
func BenchmarkFig8ImbalanceScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.Fig8()
		if err != nil {
			b.Fatal(err)
		}
		last := t.Rows[len(t.Rows)-1]
		b.ReportMetric(last.Values[0], "srr-speedup-at-max-imbalance")
	}
}

// BenchmarkFig9AllApps regenerates Figure 9: combined-design speedups on
// all applications (paper: Shuffle+RBA +10.6% vs fully-connected +13.2%).
func BenchmarkFig9AllApps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.Fig9()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(colGeoMean(b, t, "shuffle+rba", 1), "shuffle+rba-speedup")
		b.ReportMetric(colGeoMean(b, t, "fully-connected", 1), "fc-speedup")
	}
}

// BenchmarkFig10Sensitive regenerates Figure 10: the design summary on
// partitioning-sensitive applications (paper: RBA +11.1%, CU doubling
// +4.1%, bank stealing <1%).
func BenchmarkFig10Sensitive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.Fig10()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(colGeoMean(b, t, "rba", 1), "rba-speedup")
		b.ReportMetric(colGeoMean(b, t, "4cu", 1), "4cu-speedup")
		b.ReportMetric(colGeoMean(b, t, "bank-steal", 1), "steal-speedup")
	}
}

// BenchmarkFig11RBAOnFC regenerates Figure 11: RBA layered on the
// fully-connected SM in RF-sensitive apps (paper: 6.1% -> 19.6%).
func BenchmarkFig11RBAOnFC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.Fig11()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(colGeoMean(b, t, "fc+rba", 1), "fc+rba-speedup")
	}
}

// BenchmarkFig12CUScaling regenerates Figure 12: collector-unit scaling
// vs RBA (paper: +4.1/+7.1/+9.6% for 4/8/16 CUs).
func BenchmarkFig12CUScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.Fig12()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(colGeoMean(b, t, "4cu", 1), "4cu-speedup")
		b.ReportMetric(colGeoMean(b, t, "16cu", 1), "16cu-speedup")
	}
}

// BenchmarkFig13AreaPower regenerates Figure 13 from the analytical
// area/power model (paper: 4 CUs => +27% area/+60% power; RBA => ~+1%).
func BenchmarkFig13AreaPower(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.Fig13()
		if err != nil {
			b.Fatal(err)
		}
		_ = t
		area4, power4 := power.Relative(power.Design{CUs: 4, Banks: 2})
		b.ReportMetric(area4, "4cu-area-x")
		b.ReportMetric(power4, "4cu-power-x")
	}
}

// BenchmarkFig14ReadTimeline regenerates Figure 14: per-cycle register
// read utilization traces for pb-mriq and rod-srad.
func BenchmarkFig14ReadTimeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.Fig14()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.Rows[0].Values[0], "mriq-gto-reads-per-cycle")
	}
}

// BenchmarkFig15TPCHCompressed regenerates Figure 15 (paper: SRR +33.1%,
// Shuffle +27.4% on the compressed database).
func BenchmarkFig15TPCHCompressed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.Fig15()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(colGeoMean(b, t, "srr", 1), "srr-speedup")
	}
}

// BenchmarkFig16TPCHUncompressed regenerates Figure 16 (paper: SRR
// +17.5%, Shuffle +13.9% on the uncompressed database).
func BenchmarkFig16TPCHUncompressed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.Fig16()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(colGeoMean(b, t, "srr", 1), "srr-speedup")
	}
}

// BenchmarkFig17IssueCoV regenerates Figure 17: the coefficient of
// variation of per-sub-core instruction issue on uncompressed TPC-H
// (paper: 0.80 -> 0.11 under SRR).
func BenchmarkFig17IssueCoV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.Fig17()
		if err != nil {
			b.Fatal(err)
		}
		mean := t.Rows[len(t.Rows)-1]
		b.ReportMetric(mean.Values[0], "rr-cov")
		b.ReportMetric(mean.Values[1], "srr-cov")
	}
}

// BenchmarkFig18SMScaling regenerates Figure 18: partitioned-SM count
// needed to match a fully-connected device (paper: 100 vs 80; 84 with
// the proposed techniques).
func BenchmarkFig18SMScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.Fig18()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.Rows[0].Values[2], "fc-over-partitioned-at-equal-sms")
	}
}

// BenchmarkSec5CUValidation regenerates the Section V collector-unit
// validation (paper: 2 CUs minimizes MAE against silicon at 16.2%).
func BenchmarkSec5CUValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.Sec5CU()
		if err != nil {
			b.Fatal(err)
		}
		mae := t.Rows[len(t.Rows)-1]
		b.ReportMetric(mae.Values[1], "mae-2cu")
	}
}

// BenchmarkSec6B4ScoreLatency regenerates the RBA score-staleness study
// (paper: <0.1% loss from 0-20 cycles of staleness).
func BenchmarkSec6B4ScoreLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.Sec6B4()
		if err != nil {
			b.Fatal(err)
		}
		gm := t.Rows[len(t.Rows)-1]
		b.ReportMetric(gm.Values[0]-gm.Values[3], "gain-lost-at-20cyc")
	}
}

// BenchmarkSec6B5BankScaling regenerates the bank-scaling sensitivity
// study (paper: RBA's gain drops from 19.3% to 15.4% with 4 banks).
func BenchmarkSec6B5BankScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.Sec6B5()
		if err != nil {
			b.Fatal(err)
		}
		gm := t.Rows[len(t.Rows)-1]
		b.ReportMetric(gm.Values[0], "rba-2bank-speedup")
		b.ReportMetric(gm.Values[1], "rba-4bank-speedup")
	}
}

// BenchmarkTracingOverhead guards the internal/trace hot path. "disabled"
// is the normal simulation with no tracer attached — every emission site
// reduces to a nil check, and this sub-benchmark must stay within 2% of
// the pre-tracing baseline (the CI contract). "enabled" attaches a full
// tracer (all-event ring + 32-cycle counter sampling on SM 0) and shows
// what observability actually costs when switched on.
func BenchmarkTracingOverhead(b *testing.B) {
	app, err := AppByName("pb-mriq")
	if err != nil {
		b.Fatal(err)
	}

	b.Run("disabled", func(b *testing.B) {
		cfg := VoltaV100()
		cfg.NumSMs = 4
		var instr int64
		for i := 0; i < b.N; i++ {
			r, err := Run(cfg, app)
			if err != nil {
				b.Fatal(err)
			}
			instr = r.Instructions
		}
		b.ReportMetric(float64(instr*int64(b.N))/b.Elapsed().Seconds(), "instr/s")
	})

	b.Run("enabled", func(b *testing.B) {
		cfg := VoltaV100()
		cfg.NumSMs = 4
		cfg.TraceSamplePeriod = 32
		var instr int64
		for i := 0; i < b.N; i++ {
			tr := trace.New(trace.OptionsFor(&cfg, 0))
			g, err := NewGPU(cfg)
			if err != nil {
				b.Fatal(err)
			}
			g.SetTracer(tr)
			for _, k := range app.Kernels {
				if err := g.RunKernel(k, 0); err != nil {
					b.Fatal(err)
				}
			}
			if err := tr.Close(); err != nil {
				b.Fatal(err)
			}
			instr = g.Run().Instructions
		}
		b.ReportMetric(float64(instr*int64(b.N))/b.Elapsed().Seconds(), "instr/s")
	})
}

// BenchmarkMetricsOverhead guards the internal/metrics hot path the same
// way BenchmarkTracingOverhead guards tracing. "disabled" is the normal
// simulation with no registry attached — the refined CPI counters are
// plain int64 increments inside the issue stage and the device flush
// reduces to one nil check per monitor beat; this sub-benchmark must
// stay within 2% of the pre-metrics baseline (the CI contract).
// "enabled" attaches a live registry and shows what telemetry costs
// when switched on (counter flushes ride the 1024-cycle heartbeat, so
// it should be indistinguishable).
func BenchmarkMetricsOverhead(b *testing.B) {
	app, err := AppByName("pb-mriq")
	if err != nil {
		b.Fatal(err)
	}
	cfg := VoltaV100()
	cfg.NumSMs = 4

	run := func(b *testing.B, reg *metrics.Registry) {
		var instr int64
		for i := 0; i < b.N; i++ {
			g, err := NewGPU(cfg)
			if err != nil {
				b.Fatal(err)
			}
			g.SetMetrics(reg)
			for _, k := range app.Kernels {
				if err := g.RunKernel(k, 0); err != nil {
					b.Fatal(err)
				}
			}
			instr = g.Run().Instructions
		}
		b.ReportMetric(float64(instr*int64(b.N))/b.Elapsed().Seconds(), "instr/s")
	}

	b.Run("disabled", func(b *testing.B) { run(b, nil) })
	b.Run("enabled", func(b *testing.B) { run(b, metrics.New()) })
}
