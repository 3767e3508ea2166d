package exp

import (
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/harness"
	"repro/internal/workloads"
)

// studyByID returns a copy of a registered study for a test to narrow.
func studyByID(t *testing.T, id string) study {
	t.Helper()
	e, _ := lookup(id)
	s, ok := e.(study)
	if !ok {
		t.Fatalf("%s is not a study", id)
	}
	return s
}

// appsNamed is an app set of catalog applications, in the order given.
func appsNamed(names ...string) func() ([]workloads.App, error) {
	return func() ([]workloads.App, error) {
		apps := make([]workloads.App, len(names))
		for i, n := range names {
			var err error
			if apps[i], err = workloads.ByName(n); err != nil {
				return nil, err
			}
		}
		return apps, nil
	}
}

func TestScaledConfigsValidate(t *testing.T) {
	for _, c := range []config.GPU{Base(), FC(), partitioned(2)} {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
		if c.NumSMs != ScaledSMs {
			t.Errorf("%s: NumSMs = %d, want %d", c.Name, c.NumSMs, ScaledSMs)
		}
	}
}

// TestMaxCyclesCapsMicroFigures: `experiments -max-cycles` reaches the
// figures that build their own device (fig3 here), not only sweep cells.
func TestMaxCyclesCapsMicroFigures(t *testing.T) {
	defer func(saved int64) { SweepOpts.MaxCycles = saved }(SweepOpts.MaxCycles)
	SweepOpts.MaxCycles = 1000
	_, err := ByID("fig3")
	var cle *gpu.CycleLimitError
	if !errors.As(err, &cle) || cle.MaxCycles != 1000 {
		t.Fatalf("fig3 under a 1000-cycle cap returned %v, want a *gpu.CycleLimitError at 1000", err)
	}
}

// TestTimeoutReachesMicroFigures: `experiments -timeout` reaches them too,
// and a micro figure's cell faults as a sweep cell does, a *SimFault that
// names it.
func TestTimeoutReachesMicroFigures(t *testing.T) {
	defer func(saved time.Duration) { SweepOpts.Timeout = saved }(SweepOpts.Timeout)
	SweepOpts.Timeout = time.Nanosecond
	_, err := ByID("fig8")
	var f *harness.SimFault
	if !errors.As(err, &f) || f.Kind != harness.FaultTimeout || f.App == "" {
		t.Fatalf("fig8 under a 1 ns budget returned %v, want a timeout *harness.SimFault naming its cell", err)
	}
}

func TestDeviceForBoostsTPCH(t *testing.T) {
	base := Base()
	tp := DeviceFor(base, workloads.App{Suite: "tpch-u"})
	if tp.DRAMBytesPerCycle != base.DRAMBytesPerCycle*4 {
		t.Error("TPC-H device must get 4x the per-SM bandwidth share")
	}
	same := DeviceFor(base, workloads.App{Suite: "rodinia"})
	if same.DRAMBytesPerCycle != base.DRAMBytesPerCycle {
		t.Error("non-TPC-H suites must keep the scaled bandwidth")
	}
}

func TestSpeedup(t *testing.T) {
	if Speedup(200, 100) != 2.0 {
		t.Error("Speedup wrong")
	}
	if Speedup(100, 0) != 0 {
		t.Error("zero-variant Speedup must be 0")
	}
}

func TestTableOps(t *testing.T) {
	tb := &Table{ID: "x", Title: "t", Columns: []string{"a", "b"}}
	tb.AddRow("r1", 2, 8)
	tb.AddRow("r2", 8, 2)
	tb.GeoMeanRow("gm")
	last := tb.Rows[len(tb.Rows)-1]
	if last.Values[0] != 4 || last.Values[1] != 4 {
		t.Errorf("geomean row = %v, want [4 4]", last.Values)
	}
	tb.MeanRow("mean")
	var sb strings.Builder
	tb.Note("hello %d", 7)
	if err := tb.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"== x: t ==", "r1", "hello 7", "4.000"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
}

// TestByIDAndIDs: the registry is the one list of experiments. Every ID
// is unique and resolves, and the list is the pinned results file's
// sections in order — so an experiment added to one and not the other
// fails here, in milliseconds, before the CI cmp step simulates anything.
func TestByIDAndIDs(t *testing.T) {
	if _, err := ByID("not-an-experiment"); err == nil {
		t.Error("unknown id must error")
	}
	ids := IDs()
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Errorf("id %q listed twice", id)
		}
		seen[id] = true
		if _, ok := lookup(id); !ok {
			t.Errorf("id %q does not resolve", id)
		}
	}
	pinned, err := os.ReadFile("../../docs/results_all.txt")
	if err != nil {
		t.Fatal(err)
	}
	var sections []string
	for _, line := range strings.Split(string(pinned), "\n") {
		if rest, ok := strings.CutPrefix(line, "== "); ok {
			id, _, _ := strings.Cut(rest, ":")
			sections = append(sections, id)
		}
	}
	if !reflect.DeepEqual(sections, ids) {
		t.Errorf("docs/results_all.txt sections\n %v\nIDs()\n %v", sections, ids)
	}
	// fig13 is pure arithmetic: run it through ByID.
	tbl, err := ByID("fig13")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.ID != "fig13" || len(tbl.Rows) != 5 {
		t.Errorf("fig13 table malformed: %+v", tbl)
	}
}

// TestFig3Shape verifies the central hardware observation end-to-end:
// unbalanced >= 2.5x on the partitioned device, ~1x on the monolithic
// device, balanced ~1x on both.
func TestFig3Shape(t *testing.T) {
	tbl, err := ByID("fig3")
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("fig3 rows = %d", len(tbl.Rows))
	}
	part, mono := tbl.Rows[0], tbl.Rows[1]
	if part.Values[2] < 2.5 {
		t.Errorf("partitioned unbalanced = %.2fx, want >= 2.5 (paper %gx on V100, %gx on A100)",
			part.Values[2], Paper("fig3", "unbalanced"), Paper("fig3", "unbalanced@a100"))
	}
	if part.Values[1] > 1.25 {
		t.Errorf("partitioned balanced = %.2fx, want ~1", part.Values[1])
	}
	if mono.Values[2] > 1.3 {
		t.Errorf("monolithic unbalanced = %.2fx, want ~1", mono.Values[2])
	}
}

// TestFig8Shape: SRR >= Shuffle > 1 on the scaled imbalance sweep, and
// the SRR-Shuffle gap does not shrink as imbalance grows.
func TestFig8Shape(t *testing.T) {
	tbl, err := ByID("fig8")
	if err != nil {
		t.Fatal(err)
	}
	firstGap := tbl.Rows[0].Values[0] - tbl.Rows[0].Values[1]
	lastGap := tbl.Rows[len(tbl.Rows)-1].Values[0] - tbl.Rows[len(tbl.Rows)-1].Values[1]
	for _, r := range tbl.Rows {
		srr, shuf := r.Values[0], r.Values[1]
		if srr < 1.2 {
			t.Errorf("%s: SRR speedup %.2f, want >= 1.2", r.Label, srr)
		}
		if shuf < 1.0 {
			t.Errorf("%s: Shuffle speedup %.2f, want >= 1.0", r.Label, shuf)
		}
		if srr+0.02 < shuf {
			t.Errorf("%s: SRR (%.2f) must not trail Shuffle (%.2f)", r.Label, srr, shuf)
		}
	}
	if lastGap < firstGap-0.05 {
		t.Errorf("SRR-Shuffle gap shrank with imbalance: %.3f -> %.3f", firstGap, lastGap)
	}
}

// TestSec5CUShape: 1 CU must be the worst fit against the silicon
// stand-in, and 2 CUs must be at or near the best.
func TestSec5CUShape(t *testing.T) {
	tbl, err := ByID("sec5cu")
	if err != nil {
		t.Fatal(err)
	}
	mae := tbl.Rows[len(tbl.Rows)-1]
	if mae.Label != "MAE" {
		t.Fatal("last row must be MAE")
	}
	one, two := mae.Values[0], mae.Values[1]
	if one <= two {
		t.Errorf("MAE(1cu)=%.3f should exceed MAE(2cu)=%.3f", one, two)
	}
	best := mae.Values[0]
	for _, v := range mae.Values {
		if v < best {
			best = v
		}
	}
	if two > best+0.08 {
		t.Errorf("MAE(2cu)=%.3f not near best %.3f", two, best)
	}
}

// TestFig14Shape: RBA must raise rod-srad's mean reads/cycle over GTO.
func TestFig14Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	tbl, err := ByID("fig14")
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]Row{}
	for _, r := range tbl.Rows {
		byLabel[r.Label] = r
	}
	gto := byLabel["rod-srad/V100-scaled"]
	rba := byLabel["rod-srad/V100-scaled+RBA"]
	if gto.Label == "" || rba.Label == "" {
		t.Fatalf("missing rows; have %v", tbl.Rows)
	}
	if rba.Values[0] <= gto.Values[0] {
		t.Errorf("RBA mean reads/cycle %.1f not above GTO %.1f", rba.Values[0], gto.Values[0])
	}
}

// TestFig17Shape: SRR and Shuffle must collapse the issue CoV.
func TestFig17Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-config sweep")
	}
	// A fixed subset spanning the baseline CoV range (q8 is the paper's
	// and our largest); every single query meets the thresholds below, and
	// the CI cmp step pins all 22 byte for byte.
	s := studyByID(t, "fig17")
	s.apps = appsNamed("tpcU-q1", "tpcU-q6", "tpcU-q8", "tpcU-q11", "tpcU-q17", "tpcU-q20")
	tbl, err := s.table("fig17")
	if err != nil {
		t.Fatal(err)
	}
	mean := tbl.Rows[len(tbl.Rows)-1]
	rr, srr, shuf := mean.Values[0], mean.Values[1], mean.Values[2]
	if rr < 0.5 {
		t.Errorf("baseline mean CoV = %.2f, want >= 0.5 (paper %.2f)", rr, Paper("fig17", "rr"))
	}
	if srr > 0.2 {
		t.Errorf("SRR mean CoV = %.2f, want <= 0.2 (paper %.2f)", srr, Paper("fig17", "srr"))
	}
	// Shuffle's 4-entry hash table repeats its pattern every 16 warps
	// (once per block here), so some per-SM issue variation survives; it
	// must still cut the baseline CoV roughly in half.
	if shuf > rr*0.6 {
		t.Errorf("Shuffle mean CoV = %.2f, want <= 60%% of baseline %.2f", shuf, rr)
	}
}

// TestSec6B4Shape: RBA must tolerate stale scores.
func TestSec6B4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-config sweep")
	}
	// The two ends of the latency range on a fixed subset (ply-2Dcon is
	// the paper's outlier); the CI cmp step pins the full table.
	s := studyByID(t, "sec6b4")
	s.apps = appsNamed("cg-hits", "cutlass-4096", "pb-cutcp", "pb-mriq", "ply-2Dcon", "rod-srad")
	s.designs = []design{base, scoreLatency(0), scoreLatency(20)}
	tbl, err := s.table("sec6b4")
	if err != nil {
		t.Fatal(err)
	}
	gm := tbl.Rows[len(tbl.Rows)-1]
	lat0, lat20 := gm.Values[0], gm.Values[1]
	// Our synthetic workloads have more volatile bank pressure than real
	// SASS traces, so staleness costs more than the paper's bound — but
	// stale RBA must retain part of its benefit and never lose to GTO
	// (see EXPERIMENTS.md).
	if lat0-lat20 > 0.08 {
		t.Errorf("RBA loses %.1f%% from 20-cycle staleness, want < 8%% (paper <%.1f%%)", (lat0-lat20)*100, Paper("sec6b4", "lat0-lat20")*100)
	}
	if lat20 < 0.99 {
		t.Errorf("stale RBA geomean %.3f fell below GTO", lat20)
	}
}
