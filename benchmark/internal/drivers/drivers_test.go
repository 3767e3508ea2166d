package drivers

import (
	"testing"

	"repro/benchmark/internal/span"
	"repro/benchmark/internal/workload"
)

func build(t *testing.T, name string) *workload.Workload {
	t.Helper()
	w, err := workload.Build(name, 1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestSMCoreDrainsAndProbes(t *testing.T) {
	w := build(t, "idle_latency")
	rec := span.New()
	res, err := SMCore(rec, w.First().Cfg, w.Apps, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tick.ops == 0 || res.IdleTick.ops == 0 || res.NextEvent.ops == 0 {
		t.Fatalf("driver skipped a measurement: %+v", res)
	}
	if res.IdleTick.ops > res.Tick.ops {
		t.Errorf("%d idle ticks out of %d ticks", res.IdleTick.ops, res.Tick.ops)
	}
	if res.IdleTick.NS() > res.Tick.NS() {
		t.Errorf("idle tick (%.0f ns) dearer than the average tick (%.0f ns)", res.IdleTick.NS(), res.Tick.NS())
	}
	if sum, n := rec.Total("smcore.tick_batch"); n == 0 || sum != res.Tick.time {
		t.Errorf("tick batch spans total %v over %d, driver counted %v", sum, n, res.Tick.time)
	}
}

func TestMemSkipsAppsWithoutGlobalAccesses(t *testing.T) {
	dense := build(t, "issue_dense")
	if res := Mem(span.New(), dense.First().Cfg, dense.Apps, 10_000); res.Access.ops != 0 || res.NextEvent.ops != 0 {
		t.Errorf("ALU-only workload drove the memory hierarchy: %+v", res)
	}
	gather := build(t, "mem_bound")
	res := Mem(span.New(), gather.First().Cfg, gather.Apps, 40_000)
	if res.Access.ops < 40_000 || res.NextEvent.ops == 0 {
		t.Fatalf("replay too short: %+v", res)
	}
	if res.L2HitPct <= 0 || res.L2HitPct >= 100 {
		t.Errorf("L2 hit rate %.1f%%: the footprints should straddle the L2", res.L2HitPct)
	}
}

func TestRegfileAndCoreRun(t *testing.T) {
	w := build(t, "issue_dense")
	cfg := w.First().Cfg
	if res := Regfile(span.New(), cfg, w.Apps, 6_400); res.ops != int64(6_400/len(w.Apps)/64*64*len(w.Apps)) || res.NS() <= 0 {
		t.Errorf("regfile driver: %+v", res)
	}
	res := Core(span.New(), cfg, w.Apps, 1<<12)
	if res.Pick.ops != 1<<12 || res.Score.ops != 1<<12 || res.Pick.NS() <= 0 || res.Score.NS() <= 0 {
		t.Errorf("core driver: %+v", res)
	}
}
