package harness

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/workloads"
)

// TestChaosSweepMetrics re-runs the chaos scenario with telemetry
// attached and asserts the harness's counters: faults by kind, completed
// cells, checkpoint writes, and resumed cells across a resume cycle.
// Registration is idempotent, so a second newSweepMetrics on the same
// registry hands back the same series to read from.
func TestChaosSweepMetrics(t *testing.T) {
	const wd = 50 * time.Millisecond
	cfgs, apps, twins := chaosSweep(4 * wd)
	reg := metrics.New()
	opt := Options{
		Workers:          4,
		WatchdogInterval: wd,
		CheckpointPath:   filepath.Join(t.TempDir(), "chaos.ckpt"),
		Metrics:          reg,
		Logf:             t.Logf,
	}

	res, err := Run(context.Background(), cfgs, nil, apps, opt)
	if err != nil {
		t.Fatal(err)
	}
	checkFaults(t, res, chaosFaults)
	m := newSweepMetrics(reg)
	if got := m.cellsTotal.Value(); got != 8 {
		t.Errorf("sweep_cells_total = %v, want 8", got)
	}
	if got := m.cellsDone.Value(); got != 3 {
		t.Errorf("sweep_cells_completed_total = %d, want 3", got)
	}
	wantFaults := map[FaultKind]int64{FaultPanic: 2, FaultWatchdog: 2, FaultError: 1}
	for k := FaultKind(0); k < numFaultKinds; k++ {
		if got := m.faults[k].Value(); got != wantFaults[k] {
			t.Errorf("sweep_faults_total{kind=%q} = %d, want %d", k, got, wantFaults[k])
		}
	}
	if got := m.ckptWrites.Value(); got != 3 {
		t.Errorf("sweep_checkpoint_writes_total = %d, want 3", got)
	}
	if got := m.cellsResumed.Value(); got != 0 {
		t.Errorf("sweep_cells_resumed_total = %d, want 0", got)
	}
	// Completed cells folded their CPI stacks into the device totals;
	// every completed cell attributed at least its issue cycles.
	var cpiTotal int64
	for _, c := range m.cpi {
		cpiTotal += c.Value()
	}
	if cpiTotal == 0 || m.cpi[0].Value() == 0 {
		t.Errorf("sim_cpi_cycles_total empty after 3 completed cells (total %d)", cpiTotal)
	}

	// Resume: the healthy twins run under the same names, and the 5 faulted
	// cells complete. Counters accumulate on the same registry.
	res2, err := Run(context.Background(), cfgs, nil, twins, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Complete() || res2.Resumed != 3 {
		t.Fatalf("resume: complete=%v resumed=%d", res2.Complete(), res2.Resumed)
	}
	if got := m.cellsDone.Value(); got != 8 {
		t.Errorf("after resume: completed = %d, want 8", got)
	}
	if got := m.cellsResumed.Value(); got != 3 {
		t.Errorf("after resume: resumed = %d, want 3", got)
	}
}

// TestSweepMetricsDeterminism: two identical sweeps on fresh registries
// must produce byte-identical /metrics scrapes — the contract that keeps
// telemetry out of the determinism suite's way. Wall-clock values never
// enter the registry (they live on Result.Wall). The scrape also holds
// no sweep_cell_heartbeat_cycle series once the sweep is over: the gauge
// is defined per live cell ("stalled value = hung cell"), so a finished
// cell must not sit in it at its last heartbeat, and the registry must
// not grow by one series — and one pinned gpu.Monitor — per cell.
func TestSweepMetricsDeterminism(t *testing.T) {
	scrape := func() string {
		reg := metrics.New()
		cfgs := []config.GPU{testCfg("cfgA"), testCfg("cfgB")}
		apps := []workloads.App{testApp("app0", 300), testApp("app1", 500)}
		res, err := Run(context.Background(), cfgs, nil, apps, Options{
			Workers: 4,
			Metrics: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Complete() {
			t.Fatal("sweep faulted")
		}
		var prom bytes.Buffer
		if err := reg.WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		return prom.String()
	}
	p1, p2 := scrape(), scrape()
	if p1 != p2 {
		t.Errorf("Prometheus scrapes differ:\n--- run1 ---\n%s\n--- run2 ---\n%s", p1, p2)
	}
	if !strings.Contains(p1, "sweep_cells_completed_total 4") {
		t.Errorf("scrape does not report the 4 completed cells:\n%s", p1)
	}
	if strings.Contains(p1, "sweep_cell_heartbeat_cycle{") {
		t.Errorf("completed cells still hold heartbeat series:\n%s", p1)
	}
}
