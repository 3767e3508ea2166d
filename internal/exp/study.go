package exp

import (
	"fmt"

	"repro/internal/stats"
	"repro/internal/workloads"
)

// study is one sweep-shaped experiment as data. The paper's evaluation
// is a single (application × design) matrix read many ways; a study
// names the cells it needs (apps × designs) and the projection of them
// it prints (columns, summary row, notes). table turns it into a Table.
type study struct {
	title string
	// apps yields the application rows.
	apps func() ([]workloads.App, error)
	// designs are the configurations swept, referred to by name.
	designs []design
	// columns are the value columns, in print order. The default (nil) is
	// the common figure: designs[0] is the reference, and every other
	// design is a column — its speedup over the reference, under its name.
	columns []column
	// summary appends a row over the per-app rows: geomean, mean, or (the
	// zero value) none.
	summary summary
	// fold, when set, fills the table's rows from the swept runs in place
	// of the default one-row-per-app projection (rows).
	fold func(s study, t *Table, apps []workloads.App, runs [][]*stats.Run)
	// notes are appended after whatever fold noted.
	notes []string
}

// column is one value column: the speedup of design `of` over design
// `ref` or, when metric is set, that metric of design `of`.
type column struct {
	name    string
	of, ref string
	metric  func(*stats.Run) float64
}

type summary int

const (
	geomean summary = iota + 1
	mean
)

// cols returns the study's columns, spelling out the default.
func (s study) cols() []column {
	if s.columns != nil {
		return s.columns
	}
	var cols []column
	for _, d := range s.designs[1:] {
		cols = append(cols, column{name: d.name, of: d.name, ref: s.designs[0].name})
	}
	return cols
}

// table runs the study: fetch the apps, sweep the designs, project.
func (s study) table(id string) (*Table, error) {
	apps, err := s.apps()
	if err != nil {
		return nil, err
	}
	runs, err := sweep(s.designs, apps)
	if err != nil {
		return nil, err
	}
	return s.project(id, apps, runs), nil
}

// project is the engine: it reads runs[app][design] through the study's
// columns. It simulates nothing.
func (s study) project(id string, apps []workloads.App, runs [][]*stats.Run) *Table {
	t := &Table{ID: id, Title: s.title}
	for _, c := range s.cols() {
		t.Columns = append(t.Columns, c.name)
	}
	if s.fold != nil {
		s.fold(s, t, apps, runs)
	} else {
		s.rows(t, apps, runs)
	}
	t.Notes = append(t.Notes, s.notes...)
	return t
}

// rows appends one row per app and then the summary row.
func (s study) rows(t *Table, apps []workloads.App, runs [][]*stats.Run) {
	cols := s.cols()
	for i, a := range apps {
		vals := make([]float64, len(cols))
		for c, col := range cols {
			of := runs[i][s.design(col.of)]
			if col.metric != nil {
				vals[c] = col.metric(of)
			} else {
				vals[c] = Speedup(runs[i][s.design(col.ref)].Cycles, of.Cycles)
			}
		}
		t.AddRow(a.Name, vals...)
	}
	switch s.summary {
	case geomean:
		t.GeoMeanRow("geomean")
	case mean:
		t.MeanRow("mean")
	}
}

// design resolves a design name to its index in s.designs. A column
// naming a design the study does not sweep is a bug in the study table.
func (s study) design(name string) int {
	for j, d := range s.designs {
		if d.name == name {
			return j
		}
	}
	panic(fmt.Sprintf("exp: study %q has no design %q", s.title, name))
}

// runner is what the registry holds: a study, or a coded figure.
type runner interface {
	table(id string) (*Table, error)
}

// coded is a micro or traced figure that builds its own devices.
type coded func(id string) (*Table, error)

func (f coded) table(id string) (*Table, error) { return f(id) }

// lookup finds an experiment in the registry.
func lookup(id string) (runner, bool) {
	for _, e := range registry {
		if e.id == id {
			return e.exp, true
		}
	}
	return nil, false
}

// ByID runs one experiment by identifier. Its table ends with the score
// lines that hold it to the paper (paper.go).
func ByID(id string) (*Table, error) {
	e, ok := lookup(id)
	if !ok {
		return nil, fmt.Errorf("exp: unknown experiment %q", id)
	}
	t, err := e.table(id)
	if err == nil {
		t.Notes = append(t.Notes, score(t)...)
	}
	return t, err
}

// IDs lists the experiment identifiers in paper order.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.id
	}
	return ids
}
