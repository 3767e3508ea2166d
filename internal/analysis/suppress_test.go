package analysis

import (
	"strings"
	"testing"
)

// Edge cases of the suppression layer: directive placement (same line
// vs the line above vs the doc comment), several analyzers waived by
// one directive, several directives on one line, and the reasonless
// rejection. The snippet is designed so the hotpath analyzer fires on
// every `tick*` function unless a directive covers the allocation.

func suppressDiags(t *testing.T, src string, strict bool) []Diagnostic {
	t.Helper()
	run := RunAnalyzers
	if strict {
		run = RunAnalyzersStrict
	}
	diags, err := run(writeSnippet(t, "supdemo", src), []*Analyzer{Hotpath, Determinism})
	if err != nil {
		t.Fatalf("run analyzers: %v", err)
	}
	return diags
}

func countByAnalyzer(diags []Diagnostic, name string) int {
	c := 0
	for _, d := range diags {
		if d.Analyzer == name {
			c++
		}
	}
	return c
}

func TestAllowSameLineAndLineAbove(t *testing.T) {
	diags := suppressDiags(t, `package supdemo

func tickSame() []int {
	return make([]int, 8) //simlint:allow hotpath -- fixture: same-line placement
}

func tickAbove() []int {
	//simlint:allow hotpath -- fixture: line-above placement
	return make([]int, 8)
}

func tickUncovered() []int {
	//simlint:allow hotpath -- fixture: two lines above, out of coverage

	return make([]int, 8)
}
`, false)
	if n := countByAnalyzer(diags, "hotpath"); n != 1 {
		t.Errorf("want exactly the uncovered allocation flagged, got %d: %v", n, diags)
	}
	for _, d := range diags {
		if d.Analyzer == "hotpath" && d.Pos.Line != 15 {
			t.Errorf("finding at line %d, want the uncovered site at 15: %s", d.Pos.Line, d)
		}
	}
}

func TestAllowDocCommentCoversWholeFunc(t *testing.T) {
	diags := suppressDiags(t, `package supdemo

// tick allocates twice; the doc-comment directive covers both.
//
//simlint:allow hotpath -- fixture: whole-declaration coverage
func tick() ([]int, []int) {
	a := make([]int, 8)
	b := make([]int, 8)
	return a, b
}
`, false)
	if len(diags) != 0 {
		t.Errorf("doc-comment directive should cover the whole body, got: %v", diags)
	}
}

func TestAllowMultipleNamesOneDirective(t *testing.T) {
	// One directive waives two analyzers on the same line: a hot-path
	// allocation whose size comes from a determinism violation.
	diags := suppressDiags(t, `package supdemo

import "time"

func tick() []int {
	return make([]int, time.Now().Second()) //simlint:allow hotpath, determinism -- fixture: one directive, two analyzers
}
`, false)
	if len(diags) != 0 {
		t.Errorf("multi-name directive should waive both analyzers, got: %v", diags)
	}
}

func TestAllowMultipleDirectivesPerLine(t *testing.T) {
	// Stacked single-name directives above the site compose the same
	// coverage as one multi-name directive on it.
	diags := suppressDiags(t, `package supdemo

import "time"

func tick() []int {
	//simlint:allow hotpath -- fixture: stacked directive one
	//simlint:allow determinism -- fixture: stacked directive two
	return make([]int, time.Now().Second())
}
`, false)
	// The hotpath directive sits two lines above the site — out of its
	// line+next coverage — so exactly the hotpath finding survives.
	if n := countByAnalyzer(diags, "hotpath"); n != 1 {
		t.Errorf("want 1 hotpath finding (directive out of range), got %d: %v", n, diags)
	}
	if n := countByAnalyzer(diags, "determinism"); n != 0 {
		t.Errorf("determinism directive is in range, got %d findings: %v", n, diags)
	}
}

func TestAllowEmptyReasonRejected(t *testing.T) {
	diags := suppressDiags(t, `package supdemo

func tickBare() []int {
	return make([]int, 8) //simlint:allow hotpath
}

func tickDashes() []int {
	return make([]int, 8) //simlint:allow hotpath --
}

func tickReasoned() []int {
	return make([]int, 8) //simlint:allow hotpath -- fixture: a proper reason
}
`, false)
	// The reasonless directives still suppress their findings (one
	// problem at a time) but are themselves reported.
	if n := countByAnalyzer(diags, "hotpath"); n != 0 {
		t.Errorf("suppression should still apply, got %d hotpath findings: %v", n, diags)
	}
	if n := countByAnalyzer(diags, "allow"); n != 2 {
		t.Errorf("want both reasonless directives reported, got %d: %v", n, diags)
	}
	for _, d := range diags {
		if d.Analyzer == "allow" && !strings.Contains(d.Message, "without a reason") {
			t.Errorf("unexpected allow-analyzer message: %s", d)
		}
	}
}

func TestAllowEmptyReasonReportedOncePerComment(t *testing.T) {
	diags := suppressDiags(t, `package supdemo

import "time"

func tick() []int {
	return make([]int, time.Now().Second()) //simlint:allow hotpath, determinism
}
`, false)
	if n := countByAnalyzer(diags, "allow"); n != 1 {
		t.Errorf("one comment, one report — got %d: %v", n, diags)
	}
}

func TestAllowEmptyReasonOutsideSelectionIgnored(t *testing.T) {
	// The directive waives an analyzer that is not running; like the
	// stale-allow rule, the reasonless rule only speaks for analyzers
	// whose findings it could actually be suppressing.
	diags := suppressDiags(t, `package supdemo

func tick() []int {
	return make([]int, 8) //simlint:allow hotpath -- fixture: reasoned
}

func setup() {
	_ = 0 //simlint:allow monitorpoll
}
`, false)
	if len(diags) != 0 {
		t.Errorf("monitorpoll is not in the selection, got: %v", diags)
	}
}

func TestStrictAllowStillReportsStale(t *testing.T) {
	// Regression guard for the interaction: a reasoned but stale
	// directive is silent normally and reported under strict.
	src := `package supdemo

func setup() []int {
	return make([]int, 8) //simlint:allow hotpath -- fixture: nothing fires in a cold func
}
`
	if diags := suppressDiags(t, src, false); len(diags) != 0 {
		t.Errorf("non-strict run should be clean, got: %v", diags)
	}
	diags := suppressDiags(t, src, true)
	if n := countByAnalyzer(diags, "allow"); n != 1 {
		t.Errorf("strict run should report the stale directive, got %d: %v", n, diags)
	}
	for _, d := range diags {
		if !strings.Contains(d.Message, "stale") {
			t.Errorf("unexpected strict finding: %s", d)
		}
	}
}
