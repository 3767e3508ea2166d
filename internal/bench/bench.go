// Package bench writes a sweep's deterministic per-cell results —
// cycles, instructions, IPC, CPI-stack shares — as one JSON document.
// Its one caller is `go run ./benchmark`, which times the write of the
// guarded pass's matrix (`bench.write_us`). Host speed is not recorded
// here: it has one home, the benchmark itself.
//
// Determinism contract: everything in the document except the Created
// timestamp is bit-deterministic, so two identical sweeps written with
// the same stamp are byte-identical files.
package bench

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/harness"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Schema identifies the document format version.
const Schema = "subcoresim-bench/1"

// Cell is one (application, configuration) measurement: a projection of
// the cell's stats.Summary.
type Cell struct {
	App    string `json:"app"`
	Config string `json:"config"`
	// Cycles, Instructions, IPC are deterministic simulation outputs.
	Cycles       int64   `json:"cycles"`
	Instructions int64   `json:"instructions"`
	IPC          float64 `json:"ipc"`
	// CPIShares maps each CPI-stack component to its share of total
	// attributed cycles (keys sort in the JSON encoding).
	CPIShares map[string]float64 `json:"cpi_shares"`
}

// Baseline is one recorded sweep.
type Baseline struct {
	Schema string `json:"schema"`
	// Created is the RFC3339 write timestamp (may be empty).
	Created string `json:"created,omitempty"`
	Cells   []Cell `json:"cells"`
}

// FromResult builds a baseline from a sweep result in matrix order,
// skipping faulted cells. apps and names index the result matrix exactly
// as they were passed to harness.Run.
func FromResult(res *harness.Result, apps []workloads.App, names []string, created string) *Baseline {
	b := &Baseline{Schema: Schema, Created: created}
	for i := range apps {
		for j := range names {
			r := res.Runs[i][j]
			if r == nil {
				continue
			}
			s := stats.Summarize(r)
			c := Cell{App: apps[i].Name, Config: names[j], Cycles: s.Cycles,
				Instructions: s.Instructions, IPC: s.IPC, CPIShares: map[string]float64{}}
			for name, e := range s.CPI {
				c.CPIShares[name] = e.Share
			}
			b.Cells = append(b.Cells, c)
		}
	}
	return b
}

// WriteFile writes the baseline to path as indented JSON.
func (b *Baseline) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	werr := enc.Encode(b)
	cerr := f.Close()
	if werr != nil {
		return fmt.Errorf("bench: encode %s: %w", path, werr)
	}
	if cerr != nil {
		return fmt.Errorf("bench: close %s: %w", path, cerr)
	}
	return nil
}
