package main

import (
	"strings"
	"testing"
)

// The exit-code contract (package comment): 0 clean, 1 findings, 2
// driver/load error. CI scripts branch on these, so they are pinned by
// test, not convention.

func runDriver(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb strings.Builder
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestExitCleanIsZero(t *testing.T) {
	code, stdout, stderr := runDriver(t, "testdata/clean")
	if code != exitClean {
		t.Fatalf("clean fixture: exit %d, want %d (stderr: %s)", code, exitClean, stderr)
	}
	if stdout != "" {
		t.Errorf("clean fixture produced output: %q", stdout)
	}
}

func TestExitFindingsIsOne(t *testing.T) {
	code, stdout, stderr := runDriver(t, "testdata/dirty")
	if code != exitFindings {
		t.Fatalf("dirty fixture: exit %d, want %d (stderr: %s)", code, exitFindings, stderr)
	}
	if !strings.Contains(stdout, "determinism") {
		t.Errorf("findings output does not name the analyzer: %q", stdout)
	}
	if !strings.Contains(stderr, "finding(s)") {
		t.Errorf("summary line missing from stderr: %q", stderr)
	}
}

func TestExitErrorIsTwo(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"unloadable package pattern", []string{"./does-not-exist"}},
		{"unknown analyzer", []string{"-analyzers", "nosuch", "testdata/clean"}},
		{"deleted analyzer", []string{"-analyzers", "traceguard", "testdata/clean"}},
		{"unknown flag", []string{"-definitely-not-a-flag"}},
		// The flags of the waiver era: an old command line must fail
		// loudly, not run as a gate that passes.
		{"strict-allow", []string{"-strict-allow", "testdata/clean"}},
		{"json", []string{"-json", "testdata/clean"}},
		{"analyzers subset", []string{"-analyzers", "determinism", "testdata/clean"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runDriver(t, tc.args...)
			if code != exitError {
				t.Fatalf("exit %d, want %d (stderr: %s)", code, exitError, stderr)
			}
		})
	}
}

// TestListPrintsRegistry pins the suite's size: one row per registered
// analyzer, in report order.
func TestListPrintsRegistry(t *testing.T) {
	code, stdout, _ := runDriver(t, "-list")
	if code != exitClean {
		t.Fatalf("exit %d, want %d", code, exitClean)
	}
	want := []string{"determinism", "faultflow"}
	rows := strings.Split(strings.TrimSpace(stdout), "\n")
	if len(rows) != len(want) {
		t.Fatalf("-list printed %d rows, want %d:\n%s", len(rows), len(want), stdout)
	}
	for i, name := range want {
		if !strings.HasPrefix(rows[i], name+" ") {
			t.Errorf("row %d = %q, want analyzer %s", i, rows[i], name)
		}
	}
}
