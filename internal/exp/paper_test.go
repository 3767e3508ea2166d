package exp

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/stats"
)

// TestJudge pins the one rule on canned readings: each kind, both edges of
// the factor, a reading on the wrong side of the reference, a calibrated
// number and the paper's own bounds.
func TestJudge(t *testing.T) {
	f := withinFactor
	for _, c := range []struct {
		name        string
		k           kind
		bound       bool
		ours, paper float64
		want        string
	}{
		{"gain at paper", gain, false, 1.10, 1.10, "✅"},
		{"gain f times the paper's", gain, false, 1 + 0.5*f, 1.5, "✅"},
		{"gain past f", gain, false, 1 + 0.5*f + 1e-9, 1.5, "🟡"},
		{"gain 1/f of the paper's", gain, false, 1.5, 1 + 0.5*f, "✅"},
		{"gain short of 1/f", gain, false, 1.5 - 1e-9, 1 + 0.5*f, "🟡"},
		{"slowdown where the paper gains", gain, false, 0.90, 1.10, "🟡"},
		{"slowdown where the paper slows", gain, false, 0.92, 0.90, "✅"},
		{"value within f", value, false, 3.999, 3.5, "✅"},
		{"value past f", value, false, 0.25, 0.43, "🟡"},
		{"value at zero", value, false, 0, 0.11, "🟡"},
		{"calibrated", calibrated, false, 1.229, 1.27, "⬜"},
		{"calibrated far off", calibrated, false, 3, 1.27, "⬜"},
		{"within a gain bound", gain, true, 0.995, 1.01, "✅"},
		{"past a gain bound", gain, true, 1.011, 1.01, "🟡"},
		{"within a value bound", value, true, -0.0005, 0.001, "✅"},
		{"past a value bound", value, true, 0.065, 0.001, "🟡"},
	} {
		if _, got := judge(c.k, c.bound, c.ours, c.paper); got != c.want {
			t.Errorf("%s: judge(%v, %.4f, %.4f) = %s, want %s", c.name, c.bound, c.ours, c.paper, got, c.want)
		}
	}
}

// TestScoreLines: a table's score lines, one per target and the verdict,
// the worst of its targets'.
func TestScoreLines(t *testing.T) {
	tbl := &Table{ID: "fig15", Columns: []string{"rba", "shuffle", "srr"}}
	tbl.AddRow("mean", 1.04, 1.274, 1.331*2-1)
	got := score(tbl)
	want := []string{
		"score fig15 srr: ours 1.662 paper 1.331 err 33.100pp ratio 2.000 🟡",
		"score fig15 shuffle: ours 1.274 paper 1.274 err 0.000pp ratio 1.000 ✅",
		"score fig15: 🟡",
	}
	if !slices.Equal(got, want) {
		t.Errorf("score =\n %q\nwant\n %q", got, want)
	}
	if got := score(&Table{ID: "abl-sched"}); !slices.Equal(got, []string{"score abl-sched: —"}) {
		t.Errorf("an experiment without targets scores %q", got)
	}
}

// TestCrossingIsTotal: a fig18 column whose crossing lies outside the
// sweep is not scored, and says on which side.
func TestCrossingIsTotal(t *testing.T) {
	for _, c := range []struct {
		part, ours []float64
		want       []string
	}{
		{[]float64{1, 1.05, 1.1, 1.12}, []float64{1.2, 1.3, 1.4, 1.5}, []string{
			"score fig18 partitioned: not scored (does not cross by SMs=7)",
			"score fig18 partitioned+ours: not scored (crosses below SMs=4)",
			"score fig18: —",
		}},
		{[]float64{1, 1.2, 1.3, 1.4}, []float64{1.2, 1.3, 1.4, 1.5}, []string{
			"score fig18 partitioned: ours 1.175 paper 1.250 err 7.500pp ratio 0.700 ✅",
			"score fig18 partitioned+ours: not scored (crosses below SMs=4)",
			"score fig18: ✅",
		}},
	} {
		tbl := &Table{ID: "fig18", Columns: []string{"partitioned", "partitioned+ours", "fully-connected@4"}}
		for i := range c.part {
			tbl.AddRow(fmt.Sprintf("SMs=%d", 4+i), c.part[i], c.ours[i], 1.14)
		}
		if got := score(tbl); !slices.Equal(got, c.want) {
			t.Errorf("score =\n %q\nwant\n %q", got, c.want)
		}
	}
}

// TestPaperTable holds the table together: every target belongs to an
// experiment (or is an artifact no experiment prints), names are unique
// per experiment, and over names a target of the same experiment. Each
// study is projected over
// a fake matrix whose cycles are a function of the cell, so two targets
// that read the same simulated quantity read the same number — and must
// carry the same paper value.
func TestPaperTable(t *testing.T) {
	ids := IDs()
	seen := map[[2]string]bool{}
	for _, g := range paperTable {
		if !slices.Contains(ids, g.id) && !slices.Contains(Calibrated(), g.id) {
			t.Errorf("target %s %s: no such experiment", g.id, g.name)
		}
		if seen[[2]string{g.id, g.name}] {
			t.Errorf("target %s %s listed twice", g.id, g.name)
		}
		seen[[2]string{g.id, g.name}] = true
		if g.over != "" && !slices.ContainsFunc(paperTable, func(o target) bool { return o.id == g.id && o.name == g.over }) {
			t.Errorf("target %s %s: over names no target %q", g.id, g.name, g.over)
		}
		if g.read == nil && g.why == "" && g.kind != calibrated {
			t.Errorf("target %s %s reads nothing and says no why", g.id, g.name)
		}
	}

	cycles := map[cellKey]int64{}
	type reading struct {
		who   string
		paper float64
	}
	read := map[float64][]reading{}
	for _, e := range registry {
		s, ok := e.exp.(study)
		if !ok {
			continue
		}
		apps, err := s.apps()
		if err != nil {
			t.Fatal(err)
		}
		runs := make([][]*stats.Run, len(apps))
		for i, a := range apps {
			for _, d := range s.designs {
				k := keyOf(d.cfg, a)
				if cycles[k] == 0 {
					cycles[k] = int64(1000 + 7919*len(cycles)%100003)
				}
				runs[i] = append(runs[i], fakeRun(cycles[k], 1, cycles[k]%97))
			}
		}
		tbl := s.project(e.id, apps, runs)
		for _, g := range paperTable {
			if g.id == e.id && g.read != nil && g.why == "" {
				v := g.read(tbl)
				if math.IsNaN(v) {
					t.Errorf("target %s %s reads NaN", g.id, g.name)
				}
				read[v] = append(read[v], reading{g.id + " " + g.name, g.paper})
			}
		}
	}
	for _, rs := range read {
		for _, r := range rs[1:] {
			if r.paper != rs[0].paper {
				t.Errorf("%s and %s read the same cell with paper values %g and %g", rs[0].who, r.who, rs[0].paper, r.paper)
			}
		}
	}
}

// TestPaperNotes: the notes print the paper's numbers as the paper writes
// them.
func TestPaperNotes(t *testing.T) {
	for id, want := range map[string]string{
		"fig10":  "paper: RBA 11.1%, CU doubling 4.1%, bank stealing <1% average",
		"fig16":  "paper: SRR +17.5%, Shuffle +13.9% average (uncompressed)",
		"fig18":  "paper: 100 partitioned SMs ≈ 80 fully-connected; 84 with the proposed techniques",
		"sec6b4": "paper: <0.1% average degradation from 0 to 20 cycles of staleness",
	} {
		if got := studyByID(t, id).notes[0]; got != want {
			t.Errorf("%s note = %q, want %q", id, got, want)
		}
	}
}
