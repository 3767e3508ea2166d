package analysis

import (
	"testing"
	"time"
)

// simlintBudget is the CI wall-clock ceiling for one whole-module pass
// of the full suite — the same work `go run ./cmd/simlint ./...` performs.
// The budget is generous on purpose: the gate exists to catch an
// accidental blow-up in loading, not to tune constants.
const simlintBudget = 30 * time.Second

// TestSimlintBudget asserts the whole-module pass fits
// the CI budget, and logs the measured time so regressions are visible
// in test output before they ever trip the ceiling.
func TestSimlintBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	start := time.Now()
	pkgs, err := Load("repro/...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	loaded := time.Now()
	if _, err := RunAnalyzers(pkgs, All); err != nil {
		t.Fatalf("RunAnalyzers: %v", err)
	}
	analyzed := time.Now()
	t.Logf("whole-module simlint pass: load %v, analyze %v, total %v (budget %v)",
		loaded.Sub(start).Round(time.Millisecond),
		analyzed.Sub(loaded).Round(time.Millisecond),
		analyzed.Sub(start).Round(time.Millisecond), simlintBudget)
	if total := analyzed.Sub(start); total > simlintBudget {
		t.Fatalf("whole-module simlint pass took %v, over the %v CI budget", total, simlintBudget)
	}
}
