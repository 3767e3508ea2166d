package exp

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/stats"
)

// Row is one labeled row of an experiment table.
type Row struct {
	// Label names the row (application, design point, query...).
	Label string `json:"name"`
	// Values align with the table's Columns.
	Values []float64 `json:"values"`
}

// Table is one reproduced figure or table. The json tags are RenderJSON's
// stable shape.
type Table struct {
	// ID is the experiment identifier, e.g. "fig9".
	ID string `json:"id"`
	// Title describes the artifact.
	Title string `json:"title"`
	// Columns name the value columns.
	Columns []string `json:"columns"`
	// Rows hold the data.
	Rows []Row `json:"rows"`
	// Notes carry comparisons to the paper's reported numbers.
	Notes []string `json:"notes,omitempty"`
}

// AddRow appends a row.
func (t *Table) AddRow(label string, values ...float64) {
	t.Rows = append(t.Rows, Row{Label: label, Values: values})
}

// Note appends a note line.
func (t *Table) Note(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// GeoMeanRow appends a geometric-mean summary row across all current rows.
func (t *Table) GeoMeanRow(label string) { t.summaryRow(label, stats.GeoMean) }

// MeanRow appends an arithmetic-mean summary row.
func (t *Table) MeanRow(label string) { t.summaryRow(label, stats.Mean) }

func (t *Table) summaryRow(label string, of func([]float64) float64) {
	vals := make([]float64, len(t.Columns))
	for c := range t.Columns {
		col := make([]float64, 0, len(t.Rows))
		for _, r := range t.Rows {
			if c < len(r.Values) {
				col = append(col, r.Values[c])
			}
		}
		vals[c] = of(col)
	}
	t.AddRow(label, vals...)
}

// Render writes the table in aligned text form.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "name")
	for _, c := range t.Columns {
		fmt.Fprintf(tw, "\t%s", c)
	}
	fmt.Fprintln(tw)
	for _, r := range t.Rows {
		fmt.Fprint(tw, r.Label)
		for _, v := range r.Values {
			fmt.Fprintf(tw, "\t%.3f", v)
		}
		fmt.Fprintln(tw)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "# %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}
