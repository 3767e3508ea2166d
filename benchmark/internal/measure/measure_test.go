package measure

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/benchmark/internal/span"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// The tests run the workloads at a fraction of the benchmark's size: the
// properties they pin do not depend on it, and tier-1 stays fast.

func runner(t *testing.T, name string, seed int64, scale float64) *Runner {
	t.Helper()
	if testing.Short() {
		t.Skip("simulates cells")
	}
	r, err := newRunner(name, seed, scale, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Small, err = newRunner(name, seed, scale*smallScale, r.Dir, nil); err != nil {
		t.Fatal(err)
	}
	return r
}

func direct(t *testing.T, r *Runner) Pass {
	t.Helper()
	p, err := r.Direct()
	if err != nil {
		t.Fatal(err)
	}
	if _, failed, failures := r.Checked(); failed > 0 {
		t.Fatalf("%s: oracle failed: %v", r.W.Name, failures)
	}
	return p
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4) == [1.75, 3.5, 5.25]
	s := Summarize([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if s.Q1 != 1.75 || s.Median != 3.5 || s.Q3 != 5.25 || s.N != 10 {
		t.Errorf("got %+v", s)
	}
	// statistics.quantiles([1.0, 2.0, 4.0], n=4) == [1.0, 2.0, 4.0]
	if s := Summarize([]float64{4, 1, 2}); s.Q1 != 1 || s.Median != 2 || s.Q3 != 4 {
		t.Errorf("got %+v", s)
	}
	if s := Summarize([]float64{7}); s.Q1 != 7 || s.Median != 7 || s.Q3 != 7 || s.N != 1 {
		t.Errorf("got %+v", s)
	}
}

func TestScaledIsTheRatioToTheReferenceKernel(t *testing.T) {
	for _, c := range []struct {
		before, after time.Duration
		want          float64
	}{
		{calibRef, calibRef, 2},         // a quiet machine: as measured
		{2 * calibRef, 2 * calibRef, 1}, // everything takes twice as long
		{calibRef, 3 * calibRef, 1},     // the mean of the two sides decides
		{0, calibRef, 2},                // not bracketed: as measured
	} {
		if got := scaled(2, c.before, c.after); got != c.want {
			t.Errorf("scaled(2, %v, %v) = %v, want %v", c.before, c.after, got, c.want)
		}
	}
}

// pass builds a synthetic harness pass over cells a (1000 instructions)
// and b (2000) from their scaled walls; raw walls are twice the scaled.
func pass(a, b, self float64) Pass {
	return Pass{Self: self, Wall: 2 * (a + b + self), Cells: []CellRun{
		{Name: "b/gto", Wall: 2 * b, Scaled: b, Run: &stats.Run{Instructions: 2000, Cycles: 20}},
		{Name: "a/gto", Wall: 2 * a, Scaled: a, Run: &stats.Run{Instructions: 1000, Cycles: 10}},
	}}
}

func TestEndToEndMetricsFromSyntheticPasses(t *testing.T) {
	passes := []Pass{pass(1, 4, 0.1), pass(3, 6, 0.3), pass(2, 5, 0.2)}
	// Two repeats of the slowest cell move its median from 5 to 6.
	repeats := []CellRun{passes[1].Cells[0], {Name: "b/gto", Wall: 14, Scaled: 7}}
	cells := CellTable(passes, repeats)
	if len(cells) != 2 || cells[0].Name != "a/gto" || cells[1].Name != "b/gto" {
		t.Fatalf("cell table %+v, want a/gto then b/gto", cells)
	}
	a, b := cells[0], cells[1]
	if a.Scaled.Median != 2 || a.Wall.Median != 4 || a.Scaled.N != 3 || a.Instructions != 1000 || a.Cycles != 10 || a.KInstrPerS != 0.5 {
		t.Errorf("cell a: %+v", a)
	}
	if b.Scaled.Median != 6 || b.Scaled.N != 5 || b.Instructions != 2000 || len(b.Walls) != 5 || b.Walls[1] != 12 || b.Walls[4] != 14 {
		t.Errorf("cell b: %+v", b)
	}
	if slow := slowestCell(cells); slow.Name != "b/gto" {
		t.Errorf("slowest cell %s", slow.Name)
	}
	m := EndToEndMetrics(passes, cells, []float64{0.5, 0.1, 0.3}, 12.5)
	// 3 kinstr over the cells' median walls 2 + 6 plus the median self time 0.2.
	if got, want := m["sim_kinstr_per_s"].Value, 3/8.2; math.Abs(got-want) > 1e-12 {
		t.Errorf("sim_kinstr_per_s %v, want %v", got, want)
	}
	// Beside it, the spread of the per-pass readings 3/5.1, 3/9.3, 3/7.2.
	if r := m["sim_kinstr_per_s"]; r.N != 3 || math.Abs(r.Q1-3/9.3) > 1e-12 || math.Abs(r.Q3-3/5.1) > 1e-12 {
		t.Errorf("sim_kinstr_per_s spread %+v", r)
	}
	// Readings 4, 5, 6, 6, 7 of cell b.
	if sl := m["slowest_cell_s"]; sl.Value != 6 || sl.Q1 != 4.5 || sl.Q3 != 6.5 || sl.N != 5 || sl.Unit != "s" {
		t.Errorf("slowest_cell_s %+v, want cell b's median 6 with quartiles 4.5 and 6.5", sl)
	}
	if su := m["setup_s"]; su.Value != 0.3 || su.N != 3 {
		t.Errorf("setup_s %+v", su)
	}
	if rss := m["peak_rss_mb"]; rss.Value != 12.5 || rss.N != 1 {
		t.Errorf("peak_rss_mb %+v", rss)
	}
	if len(m) != len(EndToEnd) {
		t.Errorf("%d metrics, catalogue has %d", len(m), len(EndToEnd))
	}
}

func TestUntracedFillsItsSecondsWithPassesThenRepeats(t *testing.T) {
	// Through the guarded harness path, the one with the most to go wrong in
	// a one-cell repeat (its own checkpoint, frames and bench baseline).
	r := runner(t, "guarded_sweep", 1, 0.08)
	start := time.Now()
	one, repeats, err := Untraced(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || len(repeats) != 0 {
		t.Fatalf("%d passes and %d repeats in no time, want the one pass a run always makes", len(one), len(repeats))
	}
	// Five times what that pass cost, calibrations and oracle included:
	// room for several passes in three quarters of it and for repeats after.
	passes, repeats, err := Untraced(r, 5*time.Since(start).Seconds())
	if err != nil {
		t.Fatal(err)
	}
	if len(passes) < 2 || len(repeats) < 1 {
		t.Fatalf("%d passes and %d repeats in the time of five passes", len(passes), len(repeats))
	}
	if _, failed, failures := r.Checked(); failed > 0 {
		t.Fatalf("oracle failed: %v", failures)
	}
	cells := CellTable(passes, repeats)
	slow := slowestCell(CellTable(passes, nil))
	for _, c := range cells {
		want := len(passes)
		if c.Name == slow.Name {
			want += len(repeats)
		}
		if c.Scaled.N != want || c.Instructions <= 0 {
			t.Errorf("cell %s: %d readings of %d instructions, want %d readings", c.Name, c.Scaled.N, c.Instructions, want)
		}
	}
	for _, c := range repeats {
		if c.Name != slow.Name || c.Run == nil || !(c.Scaled > 0) {
			t.Errorf("repeat %+v, want a reading of %s", c, slow.Name)
		}
	}
	for name, m := range EndToEndMetrics(passes, cells, []float64{0.1}, 1) {
		if !(m.Value > 0) || math.IsInf(m.Value, 0) {
			t.Errorf("%s = %v", name, m.Value)
		}
	}
	if _, err := r.only("no-such-app/rba"); err == nil {
		t.Error("only accepted a cell the workload does not have")
	}
}

func TestDigestFollowsSeed(t *testing.T) {
	for _, name := range []string{"issue_dense", "mem_bound", "idle_latency"} {
		digest := func(seed int64) string {
			r := runner(t, name, seed, 0.02)
			direct(t, r)
			direct(t, r) // a second pass must reproduce the first byte for byte
			return r.Oracle.Digest()
		}
		a, b, c := digest(1), digest(1), digest(2)
		if a != b {
			t.Errorf("%s: seed 1 gave digests %s and %s", name, a[:12], b[:12])
		}
		// At this scale issue_dense's seeds round to the same trip counts, and
		// it has no addresses for a seed to move; the workload package's tests
		// hold its full-size kernels apart.
		if a == c && name != "issue_dense" {
			t.Errorf("%s: seeds 1 and 2 gave the same digest", name)
		}
	}
}

func TestIssueDenseStressesIssueOnly(t *testing.T) {
	p := direct(t, runner(t, "issue_dense", 1, 0.25))
	for _, c := range p.Cells {
		if ff := float64(c.FF) / float64(c.Run.Cycles); ff >= 0.01 {
			t.Errorf("%s fast-forwards %.1f%% of its cycles, want < 1%%", c.Name, 100*ff)
		}
		for i := range c.Run.SMs {
			if n := c.Run.SMs[i].L1Hits + c.Run.SMs[i].L1Misses; n != 0 {
				t.Errorf("%s: SM %d made %d L1 accesses, want none", c.Name, i, n)
			}
		}
		if occ := c.Run.MeanOccupancy(); occ < 32 {
			t.Errorf("%s: %.1f resident warps per SM, want a full machine", c.Name, occ)
		}
	}
}

func TestIdleLatencyFastForwards(t *testing.T) {
	p := direct(t, runner(t, "idle_latency", 1, 0.1))
	for _, c := range p.Cells {
		if ff := float64(c.FF) / float64(c.Run.Cycles); ff < 0.85 {
			t.Errorf("%s fast-forwards %.1f%% of its cycles, want >= 85%%", c.Name, 100*ff)
		}
	}
}

func TestMemBoundGathersLandOnThreeCacheRegimes(t *testing.T) {
	p := direct(t, runner(t, "mem_bound", 1, 0.25))
	hit := map[string]float64{}
	for _, c := range p.Cells {
		var h, all int64
		for i := range c.Run.SMs {
			h += c.Run.SMs[i].L1Hits
			all += c.Run.SMs[i].L1Hits + c.Run.SMs[i].L1Misses
		}
		if all == 0 {
			t.Fatalf("%s made no L1 accesses", c.Name)
		}
		hit[strings.TrimSuffix(c.Name, "/gto")] = float64(h) / float64(all)
	}
	l1, l2, dram := hit["gather-l1"], hit["gather-l2"], hit["gather-dram"]
	if !(l1 > 0.85 && l2 < l1-0.2 && l2 > dram+0.2 && dram < 0.3) {
		t.Errorf("L1 hit rates %.2f / %.2f / %.2f: want L1-resident > 0.85, L2-resident well between, DRAM-bound < 0.3", l1, l2, dram)
	}
	if _, ok := hit["stream-copy"]; !ok {
		t.Error("no streaming cell")
	}
}

func TestGuardedSweepWritesAFramePerCell(t *testing.T) {
	r := runner(t, "guarded_sweep", 1, 0.2)
	apps := r.W.Apps
	for i := range apps {
		// One app at a time, so the frame counter is that cell's own.
		r.W.Apps, r.W.Order = []workloads.App{apps[i]}, []int{0}
		p, err := r.Harness(true)
		if err != nil {
			t.Fatal(err)
		}
		if p.Frames < 1 {
			t.Errorf("%s wrote %d snapshot frames under the guard ring, want at least one", p.Cells[0].Name, p.Frames)
		}
		if p.CheckpointKB <= 0 || p.BenchWriteUS <= 0 {
			t.Errorf("%s: checkpoint %.1f KB, bench write %.0f us", p.Cells[0].Name, p.CheckpointKB, p.BenchWriteUS)
		}
	}
	if _, failed, failures := r.Checked(); failed > 0 {
		t.Fatalf("oracle failed: %v", failures)
	}
}

func TestOracleCatchesDrift(t *testing.T) {
	r := runner(t, "issue_dense", 1, 0.1)
	p := direct(t, r)
	c := p.Cells[0]
	app := strings.Split(c.Name, "/")[0]
	before := r.Oracle.Failed

	drift := *c.Run
	drift.OccupancySum++
	r.Oracle.Check(app, c.Name, &drift, nil, nil)
	short := *c.Run
	short.Instructions--
	r.Oracle.Check(app, c.Name, &short, nil, nil)
	broken := *c.Run
	broken.Cycles++
	r.Oracle.Check(app, c.Name, &broken, nil, nil)
	r.Oracle.Check(app, c.Name, nil, nil, nil)

	if got := r.Oracle.Failed - before; got != 4 {
		t.Errorf("oracle failed %d of 4 tampered results: %v", got, r.Oracle.Failures)
	}
	r.Oracle.CheckFidelity(RBAGainErrCeilingPP + 0.01)
	if r.Oracle.Failed-before != 5 {
		t.Error("fidelity ceiling not enforced")
	}
}

func TestPaperSweepThroughHarnessMatchesDirect(t *testing.T) {
	r := runner(t, "paper_sweep", 2, 0.12)
	hp, err := r.Harness(false)
	if err != nil {
		t.Fatal(err)
	}
	dp := direct(t, r) // same oracle: the direct twins must serialise identically
	if hp.Instructions() != dp.Instructions() || len(hp.Cells) != len(dp.Cells) {
		t.Errorf("harness pass %d instr / %d cells, direct pass %d / %d", hp.Instructions(), len(hp.Cells), dp.Instructions(), len(dp.Cells))
	}
	if hp.Wall < hp.CellWall() {
		t.Errorf("harness wall %.4fs below the sum of its cells %.4fs", hp.Wall, hp.CellWall())
	}
	if e := RBAGainErrPP(r.W, &hp); math.IsInf(e, 0) || e <= 0 {
		t.Errorf("rba_gain_err_pp %v on a Fig 10 subset", e)
	}
}

func TestTracedReportsEveryPerLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates cells")
	}
	rec := span.New()
	r, setup, err := Setup("mem_bound", 1, 0.05, t.TempDir(), rec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(setup) < setupMinReps || len(setup) > setupMaxReps {
		t.Fatalf("%d set-up samples", len(setup))
	}
	m, err := Traced(r)
	if err != nil {
		t.Fatal(err)
	}
	if _, failed, failures := r.Checked(); failed > 0 {
		t.Fatalf("oracle failed: %v", failures)
	}
	var cpi float64
	for _, d := range append(append([]Def(nil), PerLayer...), Fidelity...) {
		v, ok := m[d.Name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s missing or not finite: %+v", d.Name, v)
		}
		if strings.HasPrefix(d.Name, "smcore.cpi_") {
			cpi += v.Value
		}
	}
	if len(m) != len(PerLayer)+len(Fidelity) {
		t.Errorf("%d metrics reported, catalogue has %d", len(m), len(PerLayer)+len(Fidelity))
	}
	if math.Abs(cpi-100) > 1e-6 {
		t.Errorf("CPI shares sum to %v, want 100", cpi)
	}
	for _, name := range []string{"mem.access_ns", "mem.next_event_ns", "smcore.tick_ns", "harness.snapshot_frames", "snapshot.write_us", "gpu.sim_cycles"} {
		if m[name].Value <= 0 {
			t.Errorf("%s = %v on mem_bound, want > 0", name, m[name].Value)
		}
	}
	for _, name := range []string{"pass", "cell", "workloads.build", "gpu.new", "gpu.run_kernels", "stats.digest", "harness.run", "harness.run_guarded", "snapshot.write", "audit.check", "smcore.driver", "mem.driver"} {
		if _, n := rec.Total(name); n == 0 {
			t.Errorf("no %q span recorded", name)
		}
	}
}
