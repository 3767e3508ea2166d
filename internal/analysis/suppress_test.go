package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Edge cases of the suppression layer: directive placement (same line
// vs the line above vs the doc comment), several analyzers waived by
// one directive, several directives on one line, and the reasonless
// rejection. The snippets are designed so the faultflow analyzer fires
// on every recover() unless a directive covers it.

// writeSnippet materializes a one-file package under a temp dir and loads
// it the fixture way.
func writeSnippet(t *testing.T, name, src string) []*Package {
	t.Helper()
	dir := filepath.Join(t.TempDir(), name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name+".go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadFixture(dir)
	if err != nil {
		t.Fatalf("LoadFixture: %v", err)
	}
	return pkgs
}

func suppressDiags(t *testing.T, src string, strict bool, analyzers ...*Analyzer) []Diagnostic {
	t.Helper()
	run := RunAnalyzers
	if strict {
		run = RunAnalyzersStrict
	}
	if len(analyzers) == 0 {
		analyzers = []*Analyzer{Faultflow, Determinism}
	}
	diags, err := run(writeSnippet(t, "supdemo", src), analyzers)
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

func tickSame() any {
	return recover() //simlint:allow faultflow -- fixture: same-line placement
}

func tickAbove() any {
	//simlint:allow faultflow -- fixture: line-above placement
	return recover()
}

func tickUncovered() any {
	//simlint:allow faultflow -- fixture: two lines above, out of coverage

	return recover()
}
`, false)
	if n := countByAnalyzer(diags, "faultflow"); n != 1 {
		t.Errorf("want exactly the uncovered recover flagged, got %d: %v", n, diags)
	}
	for _, d := range diags {
		if d.Analyzer == "faultflow" && d.Pos.Line != 15 {
			t.Errorf("finding at line %d, want the uncovered site at 15: %s", d.Pos.Line, d)
		}
	}
}

func TestAllowDocCommentCoversWholeFunc(t *testing.T) {
	diags := suppressDiags(t, `package supdemo

// tick recovers twice; the doc-comment directive covers both.
//
//simlint:allow faultflow -- fixture: whole-declaration coverage
func tick() (any, any) {
	a := recover()
	b := recover()
	return a, b
}
`, false)
	if len(diags) != 0 {
		t.Errorf("doc-comment directive should cover the whole body, got: %v", diags)
	}
}

func TestAllowMultipleNamesOneDirective(t *testing.T) {
	// One directive waives two analyzers on the same line: a foreign
	// recover next to a wall-clock read.
	diags := suppressDiags(t, `package supdemo

import "time"

func tick() (any, time.Time) {
	return recover(), time.Now() //simlint:allow faultflow, determinism -- fixture: one directive, two analyzers
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

func tick() (any, time.Time) {
	//simlint:allow faultflow -- fixture: stacked directive one
	//simlint:allow determinism -- fixture: stacked directive two
	return recover(), time.Now()
}
`, false)
	// The faultflow directive sits two lines above the site — out of its
	// line+next coverage — so exactly the faultflow finding survives.
	if n := countByAnalyzer(diags, "faultflow"); n != 1 {
		t.Errorf("want 1 faultflow finding (directive out of range), got %d: %v", n, diags)
	}
	if n := countByAnalyzer(diags, "determinism"); n != 0 {
		t.Errorf("determinism directive is in range, got %d findings: %v", n, diags)
	}
}

func TestAllowEmptyReasonRejected(t *testing.T) {
	diags := suppressDiags(t, `package supdemo

func tickBare() any {
	return recover() //simlint:allow faultflow
}

func tickDashes() any {
	return recover() //simlint:allow faultflow --
}

func tickReasoned() any {
	return recover() //simlint:allow faultflow -- fixture: a proper reason
}
`, false)
	// The reasonless directives still suppress their findings (one
	// problem at a time) but are themselves reported.
	if n := countByAnalyzer(diags, "faultflow"); n != 0 {
		t.Errorf("suppression should still apply, got %d faultflow findings: %v", n, diags)
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

func tick() (any, time.Time) {
	return recover(), time.Now() //simlint:allow faultflow, determinism
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

func tick() any {
	return recover() //simlint:allow faultflow -- fixture: reasoned
}

func setup() {
	_ = 0 //simlint:allow determinism
}
`, false, Faultflow)
	if len(diags) != 0 {
		t.Errorf("determinism is not in the selection, got: %v", diags)
	}
}

func TestStrictAllowStillReportsStale(t *testing.T) {
	// Regression guard for the interaction: a reasoned but stale
	// directive is silent normally and reported under strict.
	src := `package supdemo

func setup() int {
	return 8 //simlint:allow faultflow -- fixture: nothing fires here
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
