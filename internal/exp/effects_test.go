package exp

import "testing"

// TestSec1EffectsShape checks the Section I effect decomposition: bank
// conflicts and issue imbalance dominate (large FC gains, recovered by
// the cheap mitigations); EU diversity is visible; register capacity is
// second-order under balanced placement.
func TestSec1EffectsShape(t *testing.T) {
	tbl, err := ByID("sec1effects")
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tbl.Rows))
	}
	byLabel := map[string]Row{}
	for _, r := range tbl.Rows {
		byLabel[r.Label] = r
	}
	// Effect 1: bank conflicts — FC helps, RBA recovers at least as much.
	e1 := byLabel["1:bank-conflicts"]
	if e1.Values[0] < 1.15 {
		t.Errorf("bank-conflict FC speedup = %.2f, want >= 1.15", e1.Values[0])
	}
	if e1.Values[1] < 1.15 {
		t.Errorf("bank-conflict RBA speedup = %.2f, want >= 1.15", e1.Values[1])
	}
	// Effect 2: issue imbalance — the dominant effect, ~4x.
	e2 := byLabel["2:issue-imbalance"]
	if e2.Values[0] < 2.5 || e2.Values[1] < 2.5 {
		t.Errorf("issue-imbalance FC/SRR = %.2f/%.2f, want >= 2.5", e2.Values[0], e2.Values[1])
	}
	// Effect 3: EU diversity — visible, SRR recovers much of it.
	e3 := byLabel["3:eu-diversity"]
	if e3.Values[0] < 1.3 {
		t.Errorf("eu-diversity FC speedup = %.2f, want >= 1.3", e3.Values[0])
	}
	if e3.Values[1] < 1.2 {
		t.Errorf("eu-diversity SRR speedup = %.2f, want >= 1.2", e3.Values[1])
	}
	// Effect 4: register capacity — second-order (paper agrees).
	e4 := byLabel["4:register-capacity"]
	if e4.Values[0] < 0.85 || e4.Values[0] > 1.2 {
		t.Errorf("register-capacity FC speedup = %.2f, want ~1 (second-order)", e4.Values[0])
	}
}
