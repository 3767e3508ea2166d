package exp

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/stats"
	"repro/internal/workloads"
)

// fakeRun is a run with the given cycle count whose SM 0 issued the
// given instructions per sub-core (what IssueCoV reads).
func fakeRun(cycles int64, issued ...int64) *stats.Run {
	r := stats.NewRun(1, len(issued))
	r.Cycles = cycles
	for i, n := range issued {
		r.SMs[0].SubCores[i].Issued = n
	}
	return r
}

// TestProjectGolden pushes a hand-written 2-app × 3-design run matrix
// through the engine: one ratio column, one metric column, a geomean
// row. No simulation. Every design has distinct cycles in every row, so
// reading the wrong design — as the subject or as the reference — moves
// a value.
func TestProjectGolden(t *testing.T) {
	s := study{
		title:   "golden",
		designs: []design{{name: "a"}, {name: "ref"}, {name: "b"}},
		columns: []column{
			{name: "b/ref", of: "b", ref: "ref"},
			{name: "cov(a)", of: "a", metric: (*stats.Run).IssueCoV},
		},
		summary: geomean,
		notes:   []string{"a note"},
	}
	apps := []workloads.App{{Name: "app0"}, {Name: "app1"}}
	runs := [][]*stats.Run{
		{fakeRun(700, 10, 30), fakeRun(400), fakeRun(100)}, // CoV of {10,30} = 10/20
		{fakeRun(900, 5, 5), fakeRun(900), fakeRun(100)},   // CoV of {5,5} = 0
	}
	got := s.project("gold", apps, runs)
	want := &Table{
		ID: "gold", Title: "golden",
		Columns: []string{"b/ref", "cov(a)"},
		Rows: []Row{
			{"app0", []float64{4, 0.5}},
			{"app1", []float64{9, 0}},
			{"geomean", []float64{6, 0.5}}, // GeoMean skips the non-positive 0
		},
		Notes: []string{"a note"},
	}
	for i, r := range got.Rows {
		for j, v := range r.Values {
			if math.Abs(v-want.Rows[i].Values[j]) < 1e-12 {
				got.Rows[i].Values[j] = want.Rows[i].Values[j]
			}
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("project =\n %+v\nwant\n %+v", got, want)
	}
}

// TestEveryStudyProjects runs each registered study's projection over a
// fake matrix: a column naming a design its study does not sweep panics
// here, not ten figures into `experiments all`.
func TestEveryStudyProjects(t *testing.T) {
	apps := []workloads.App{{Name: "app0"}, {Name: "app1"}}
	for _, e := range registry {
		s, ok := e.exp.(study)
		if !ok {
			continue
		}
		runs := make([][]*stats.Run, len(apps))
		for i := range runs {
			for j := range s.designs {
				runs[i] = append(runs[i], fakeRun(int64(100+10*i+j), 1, 2))
			}
		}
		tbl := s.project(e.id, apps, runs)
		if tbl.ID != e.id || len(tbl.Rows) == 0 || len(tbl.Columns) != len(s.cols()) {
			t.Errorf("%s: malformed projection %+v", e.id, tbl)
		}
		for _, r := range tbl.Rows {
			if len(r.Values) != len(tbl.Columns) {
				t.Errorf("%s: row %s has %d values for %d columns", e.id, r.Label, len(r.Values), len(tbl.Columns))
			}
		}
	}
}

// TestMemo: a cell is simulated once per process, and a cell is what is
// simulated, not what it is called.
func TestMemo(t *testing.T) {
	s := study{
		title: "memo",
		apps:  appsNamed("pb-mriq"),
		// The two RBA designs carry the same config Name and differ in one
		// modelled field.
		designs: []design{base, scoreLatency(0), scoreLatency(5)},
	}
	if a, b := s.designs[1].cfg, s.designs[2].cfg; a.Name != b.Name || a == b {
		t.Fatalf("want same-name, different-field designs; have %q/%d and %q/%d",
			a.Name, a.RBAScoreLatency, b.Name, b.RBAScoreLatency)
	}
	first, err := s.table("memo")
	if err != nil {
		t.Fatal(err)
	}
	simulated, reused := SweepCells()
	second, err := s.table("memo")
	if err != nil {
		t.Fatal(err)
	}
	if sim2, reused2 := SweepCells(); sim2 != simulated || reused2 != reused+3 {
		t.Errorf("second run simulated %d cells and reused %d, want 0 and 3", sim2-simulated, reused2-reused)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("memoised table differs:\n %+v\n %+v", first, second)
	}
	if v := first.Rows[0].Values; v[0] == v[1] {
		t.Errorf("lat0 and lat5 both read %.6f: one was served the other's cell", v[0])
	}

	// The key itself: a label is not identity, every modelled field is,
	// and the per-suite device (DeviceFor) is part of it.
	app, tpch := workloads.App{Name: "x", Suite: "rodinia"}, workloads.App{Name: "x", Suite: "tpch-u"}
	renamed := Base()
	renamed.Name = "another label"
	if keyOf(renamed, app) != keyOf(Base(), app) {
		t.Error("renaming a config changed its cell key")
	}
	if keyOf(scoreLatency(0).cfg, app) == keyOf(scoreLatency(5).cfg, app) {
		t.Error("RBAScoreLatency is not part of the cell key")
	}
	if keyOf(Base(), app) == keyOf(Base(), tpch) {
		t.Error("the per-suite device is not part of the cell key")
	}
}
