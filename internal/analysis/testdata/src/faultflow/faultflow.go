// Package faultflow is the golden-file fixture for the faultflow
// analyzer: harness fault values dropped on the floor, recover() outside
// the harness, and the sanctioned handling patterns.
package faultflow

import "repro/internal/harness"

func runCell() *harness.SimFault { return nil }

func runCells() (int, harness.CellErrors) { return 0, nil }

// dropAll discards the fault entirely: the cell's failure vanishes.
func dropAll() {
	runCell() // want "discards its .harness.SimFault result"
}

// blanks assigns faults to _, single- and multi-value forms.
func blanks() {
	_ = runCell()      // want "harness.SimFault assigned to _"
	n, _ := runCells() // want "harness.CellErrors assigned to _"
	_ = n
}

// handled propagates the fault — the sanctioned pattern.
func handled() error {
	if f := runCell(); f != nil {
		return f
	}
	return nil
}

// badRecover swallows panics before the harness can classify them.
func badRecover() {
	defer func() {
		if r := recover(); r != nil { // want "recover.. outside internal/harness"
			_ = r
		}
	}()
}
