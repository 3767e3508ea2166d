package harness

import (
	"fmt"
	"sort"
	"strings"
)

// FaultKind classifies how a sweep cell failed.
type FaultKind uint8

const (
	// FaultPanic: the simulator panicked (an invariant violation in the
	// model, e.g. regfile/subcore/sm consistency checks).
	FaultPanic FaultKind = iota
	// FaultError: the cell returned an ordinary error (a kernel the
	// configuration cannot hold, an invalid configuration).
	FaultError
	// FaultDeadline: the cell hit its simulated-cycle cap.
	FaultDeadline
	// FaultWatchdog: the forward-progress watchdog observed a stalled
	// heartbeat (livelocked or hung cell) and killed it.
	FaultWatchdog
	// FaultTimeout: the cell exceeded its wall-clock budget.
	FaultTimeout
	// FaultCanceled: the surrounding context was canceled (shutdown).
	FaultCanceled
	// FaultAudit: the runtime invariant auditor (config.AuditEvery) found
	// broken conservation laws — the simulation state is corrupt and its
	// statistics cannot be trusted (*gpu.AuditError carries the
	// violations).
	FaultAudit

	numFaultKinds
)

var faultKindNames = [numFaultKinds]string{
	"panic", "error", "deadline", "watchdog", "timeout", "canceled", "audit",
}

// String names the fault kind.
func (k FaultKind) String() string {
	if int(k) < len(faultKindNames) {
		return faultKindNames[k]
	}
	return fmt.Sprintf("fault(%d)", uint8(k))
}

// SimFault is the structured record of one failed sweep cell. It
// implements error so it can travel through ordinary error returns while
// keeping the cell identity, fault class, simulation progress, panic
// stack, and the flight-recorder dump location.
type SimFault struct {
	// App and Config identify the sweep cell.
	App, Config string
	// Kind classifies the failure.
	Kind FaultKind
	// Cycle is the last simulation cycle the cell reported (its final
	// heartbeat; 0 if it never started simulating).
	Cycle int64
	// Err is the underlying error for non-panic faults.
	Err error
	// PanicValue and Stack capture a recovered panic.
	PanicValue any
	Stack      []byte
	// DumpPath is the flight-recorder diagnostics file written for this
	// fault ("" when diagnostics were not armed).
	DumpPath string
}

// Error implements error.
func (f *SimFault) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "harness: %s on %s: %s fault at cycle %d", f.App, f.Config, f.Kind, f.Cycle)
	switch {
	case f.Kind == FaultPanic:
		fmt.Fprintf(&b, ": panic: %v", f.PanicValue)
	case f.Err != nil:
		fmt.Fprintf(&b, ": %v", f.Err)
	}
	if f.DumpPath != "" {
		fmt.Fprintf(&b, " [diagnostics: %s]", f.DumpPath)
	}
	return b.String()
}

// Unwrap exposes the underlying error to errors.Is/As chains.
func (f *SimFault) Unwrap() error { return f.Err }

// Cell identifies one (application, configuration) cell of a sweep by
// index.
type Cell struct {
	App, Cfg int
}

// CellErrors maps faulted cells to their faults. Callers that need every
// cell must check it before dereferencing the result matrix; a cell
// absent from the map has a non-nil run.
type CellErrors map[Cell]error

// Err aggregates the per-cell errors into one summary error, nil when
// the map is empty.
func (e CellErrors) Err() error {
	if len(e) == 0 {
		return nil
	}
	cells := make([]Cell, 0, len(e))
	for c := range e {
		cells = append(cells, c)
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].App != cells[j].App {
			return cells[i].App < cells[j].App
		}
		return cells[i].Cfg < cells[j].Cfg
	})
	var b strings.Builder
	fmt.Fprintf(&b, "harness: %d sweep cell(s) faulted:", len(e))
	for i, c := range cells {
		if i == 3 {
			fmt.Fprintf(&b, " (and %d more)", len(cells)-i)
			break
		}
		fmt.Fprintf(&b, "\n  %v", e[c])
	}
	return fmt.Errorf("%s", b.String())
}
