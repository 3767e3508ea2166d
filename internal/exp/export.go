package exp

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// RenderCSV writes the table as CSV: a header of "name" plus the value
// columns, one record per row. Notes are omitted (CSV is for machines).
func (t *Table) RenderCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append([]string{"name"}, t.Columns...)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range t.Rows {
		rec := make([]string, 0, len(r.Values)+1)
		rec = append(rec, r.Label)
		for _, v := range r.Values {
			rec = append(rec, strconv.FormatFloat(v, 'f', 6, 64))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// RenderJSON writes the table as a JSON document (the shape is Table's
// and Row's json tags).
func (t *Table) RenderJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// RenderMarkdown writes the table as a GitHub-flavored markdown table
// with the notes as a trailing list.
func (t *Table) RenderMarkdown(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "### %s: %s\n\n", t.ID, t.Title); err != nil {
		return err
	}
	fmt.Fprint(w, "| name |")
	for _, c := range t.Columns {
		fmt.Fprintf(w, " %s |", c)
	}
	fmt.Fprint(w, "\n|---|")
	for range t.Columns {
		fmt.Fprint(w, "---|")
	}
	fmt.Fprintln(w)
	for _, r := range t.Rows {
		fmt.Fprintf(w, "| %s |", r.Label)
		for _, v := range r.Values {
			fmt.Fprintf(w, " %.3f |", v)
		}
		fmt.Fprintln(w)
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "\n> %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// RenderAs dispatches on format: "text" (default), "csv", "json", or
// "md" (markdown).
func (t *Table) RenderAs(w io.Writer, format string) error {
	switch format {
	case "", "text":
		return t.Render(w)
	case "csv":
		return t.RenderCSV(w)
	case "json":
		return t.RenderJSON(w)
	case "md", "markdown":
		return t.RenderMarkdown(w)
	default:
		return fmt.Errorf("exp: unknown format %q (want text, csv, json, or md)", format)
	}
}
