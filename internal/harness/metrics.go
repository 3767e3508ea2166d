package harness

import (
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/stats"
)

// sweepMetrics bundles the harness's registered telemetry handles. Without
// a registry every handle is nil and updating one does nothing, so use sites
// update them unguarded.
type sweepMetrics struct {
	reg *metrics.Registry

	cellsTotal   *metrics.Gauge
	cellsDone    *metrics.Counter
	cellsResumed *metrics.Counter
	ckptWrites   *metrics.Counter
	snapWrites   *metrics.Counter
	snapResumes  *metrics.Counter
	faults       [numFaultKinds]*metrics.Counter
	cpi          [stats.NumCPIComponents]*metrics.Counter
}

// newSweepMetrics registers the harness metric families on reg; a nil reg
// yields nil handles (telemetry off).
func newSweepMetrics(reg *metrics.Registry) *sweepMetrics {
	m := &sweepMetrics{reg: reg}
	m.cellsTotal = reg.Gauge("sweep_cells_total",
		"cells (application x configuration) in the sweep matrix")
	m.cellsDone = reg.Counter("sweep_cells_completed_total",
		"cells simulated to completion this run")
	m.cellsResumed = reg.Counter("sweep_cells_resumed_total",
		"cells restored from the checkpoint instead of re-simulated")
	m.ckptWrites = reg.Counter("sweep_checkpoint_writes_total",
		"cells appended to the JSONL checkpoint")
	m.snapWrites = reg.Counter("sweep_snapshot_writes_total",
		"mid-kernel device snapshot frames persisted")
	m.snapResumes = reg.Counter("sweep_snapshot_resumes_total",
		"cells resumed mid-kernel from a snapshot frame")
	for k := FaultKind(0); k < numFaultKinds; k++ {
		m.faults[k] = reg.Counter("sweep_faults_total",
			"faulted cells by fault kind", metrics.L("kind", k.String()))
	}
	for c := stats.CPIComponent(0); c < stats.NumCPIComponents; c++ {
		m.cpi[c] = reg.Counter("sim_cpi_cycles_total",
			"top-down CPI stack: sub-core cycles attributed to each cause, summed over completed cells",
			metrics.L("component", c.String()))
	}
	return m
}

// watchCell registers the cell's live-progress gauge at its monitor:
// the gauge reads the last heartbeat cycle at scrape time, so a hung
// cell is visible as a stalled value. The returned function drops the
// series; the caller runs it when the cell ends, so the registry holds
// one series per in-flight cell and no closure outlives its monitor.
func (m *sweepMetrics) watchCell(app, cfgName string, mon *gpu.Monitor) (unwatch func()) {
	if m.reg == nil {
		return func() {}
	}
	return m.reg.GaugeFunc("sweep_cell_heartbeat_cycle",
		"last monitor heartbeat cycle per live cell (stalled value = hung cell)",
		func() float64 { return float64(mon.Cycle()) },
		metrics.L("app", app), metrics.L("config", cfgName))
}

// cellDone accounts one successfully completed cell: the completion
// counter, and its CPI stack folded into the device-wide attribution
// totals.
func (m *sweepMetrics) cellDone(run *stats.Run) {
	m.cellsDone.Inc()
	sum := stats.Summarize(run)
	for c, h := range m.cpi {
		h.Add(sum.CPI[stats.CPIComponent(c).String()].Cycles)
	}
}
