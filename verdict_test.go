package repro

import (
	_ "embed"
	"slices"
	"strings"
	"testing"

	"repro/internal/exp"
)

// The two files are embedded, not read, so that `go test -overlay` (the
// mutant ledger) can hand this test an edited copy of either.
var (
	//go:embed EXPERIMENTS.md
	experimentsDoc string
	//go:embed docs/results_all.txt
	pinnedResults string
)

// TestExperimentVerdictsAreComputed holds EXPERIMENTS.md to the paper
// table: its tables name exactly the experiments (`exp.IDs`) and the
// artifacts the model was built from (`exp.Calibrated`), and each Verdict
// cell opens with the verdict computed for its ID — the "# score <id>:"
// line of docs/results_all.txt, which CI compares with real output, or ⬜.
func TestExperimentVerdictsAreComputed(t *testing.T) {
	computed := map[string]string{}
	for _, line := range strings.Split(pinnedResults, "\n") {
		if rest, ok := strings.CutPrefix(line, "# score "); ok {
			// A target's line names the target after the ID; the
			// experiment's line does not.
			if id, verdict, _ := strings.Cut(rest, ": "); !strings.Contains(id, " ") {
				computed[id] = verdict
			}
		}
	}
	for _, id := range exp.IDs() {
		if computed[id] == "" {
			t.Errorf("docs/results_all.txt has no score line for %s", id)
		}
	}
	for _, id := range exp.Calibrated() {
		computed[id] = "⬜"
	}

	var ids []string
	verdictCol := -1
	for _, line := range strings.Split(experimentsDoc, "\n") {
		cells := strings.Split(line, "|")
		switch {
		case !strings.HasPrefix(line, "|"):
			verdictCol = -1
		case strings.HasPrefix(line, "| ID |"):
			verdictCol = slices.IndexFunc(cells, func(c string) bool { return strings.TrimSpace(c) == "Verdict" })
		case strings.HasPrefix(line, "|---"):
		default:
			id := strings.TrimSpace(cells[1])
			ids = append(ids, id)
			if verdictCol < 0 {
				continue
			}
			if got := strings.Fields(cells[verdictCol]); len(got) == 0 || got[0] != computed[id] {
				t.Errorf("EXPERIMENTS.md gives %s the verdict %q; the paper table computes %q", id, strings.TrimSpace(cells[verdictCol]), computed[id])
			}
		}
	}
	want := append(exp.IDs(), exp.Calibrated()...)
	slices.Sort(ids)
	slices.Sort(want)
	if !slices.Equal(ids, want) {
		t.Errorf("EXPERIMENTS.md table IDs:\n%v\nwant exp.IDs() and exp.Calibrated():\n%v", ids, want)
	}
}
