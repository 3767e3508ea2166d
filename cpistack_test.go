package repro

import (
	"testing"
)

// TestCPIStackInvariant: on real workloads and the paper's headline
// configurations, every SM x sub-core's top-down CPI stack must
// attribute each elapsed cycle to exactly one cause — the stack sums
// bit-exactly to the run's cycle count with no negative component
// (internal/stats.CheckCPI). This is the whole-simulator complement of
// smcore's FuzzSMExecution.
func TestCPIStackInvariant(t *testing.T) {
	configs := []struct {
		name string
		cfg  Config
	}{
		{"gto", VoltaV100().WithSMs(2)},
		{"rba", VoltaV100().WithSMs(2).WithScheduler(SchedRBA)},
		{"rba+shuffle", VoltaV100().WithSMs(2).WithScheduler(SchedRBA).WithAssign(AssignShuffle)},
	}
	for _, appName := range []string{"cg-pgrnk", "pb-mriq"} {
		app, err := AppByName(appName)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range configs {
			t.Run(appName+"/"+tc.name, func(t *testing.T) {
				r, err := Run(tc.cfg, app)
				if err != nil {
					t.Fatal(err)
				}
				if err := r.CheckCPI(); err != nil {
					t.Fatal(err)
				}
				st := r.CPIStack()
				subCores := 0
				for i := range r.SMs {
					subCores += len(r.SMs[i].SubCores)
				}
				if want := r.Cycles * int64(subCores); st.Total() != want {
					t.Fatalf("device stack total %d, want cycles x sub-cores = %d", st.Total(), want)
				}
				// The issue component must account for all issued
				// instructions' cycles: a sub-core can issue more than one
				// instruction per cycle, so issue cycles never exceed
				// instructions but must be positive for a non-empty run.
				if r.Instructions > 0 && st[0] == 0 {
					t.Fatal("non-empty run attributed zero issue cycles")
				}
			})
		}
	}
}
