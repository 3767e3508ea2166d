package mutants

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// root is the module root, two levels above this package.
const root = "../.."

// mutate applies m's edits to the tree at dir and returns the mutated
// contents by repo-relative file. Each edit's Old must occur exactly once
// in its file as the edits before it left it.
func mutate(dir string, m Mutant) (map[string]string, error) {
	files := map[string]string{}
	for _, e := range m.Edits {
		src, ok := files[e.File]
		if !ok {
			b, err := os.ReadFile(filepath.Join(dir, e.File))
			if err != nil {
				return nil, err
			}
			src = string(b)
		}
		if n := strings.Count(src, e.Old); n != 1 {
			return nil, fmt.Errorf("%s: old text occurs %d times, want 1: %q", e.File, n, e.Old)
		}
		files[e.File] = strings.Replace(src, e.Old, e.New, 1)
	}
	return files, nil
}

// testFuncs returns the top-level Test and Fuzz functions declared in the
// test files of the package in dir.
func testFuncs(dir string) (map[string]bool, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		return nil, err
	}
	funcs := map[string]bool{}
	fset := token.NewFileSet()
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil &&
				(strings.HasPrefix(fn.Name.Name, "Test") || strings.HasPrefix(fn.Name.Name, "Fuzz")) {
				funcs[fn.Name.Name] = true
			}
		}
	}
	return funcs, nil
}

var (
	// failLine matches go test's line for a failed top-level test.
	failLine = regexp.MustCompile(`(?m)^--- FAIL: (\S+)`)
	// okLine matches go test's line for a package whose tests all passed.
	okLine = regexp.MustCompile(`(?m)^ok\s`)
)

// verdict judges the output of one `go test -run runPattern(killers)` of a
// package under a mutant: "" when every killer printed --- FAIL, else why
// the mutant counts as alive.
func verdict(out string, killers []string) string {
	switch {
	case strings.Contains(out, "[build failed]") || strings.Contains(out, "[setup failed]"):
		return "the mutated tree does not build"
	case strings.Contains(out, "[no tests to run]"):
		return "no named killer is in the package"
	}
	failed := map[string]bool{}
	for _, m := range failLine.FindAllStringSubmatch(out, -1) {
		failed[m[1]] = true
	}
	var missing []string
	for _, k := range killers {
		if !failed[k] {
			missing = append(missing, k)
		}
	}
	switch {
	case len(missing) == 0:
		return ""
	case okLine.MatchString(out):
		return "the package passes"
	}
	return "no --- FAIL from " + strings.Join(missing, ", ")
}

// simlintVerdict judges simlint's output and exit code on the mutated tree:
// "" when the analyzer reports a finding in an edited file. simlint names a
// file by its absolute path, so files match as a path suffix.
func simlintVerdict(out string, code int, analyzer string, files []string) string {
	if code != 1 {
		return fmt.Sprintf("simlint exited %d, want 1 (findings)", code)
	}
	for _, line := range strings.Split(out, "\n") {
		for _, f := range files {
			if (strings.HasPrefix(line, f+":") || strings.Contains(line, "/"+f+":")) &&
				strings.Contains(line, "["+analyzer+"]") {
				return ""
			}
		}
	}
	return fmt.Sprintf("no [%s] finding in %s", analyzer, strings.Join(files, ", "))
}

// TestLedgerEditsApply holds every entry to the tree it was written
// against: each edit's old text occurs exactly once, so the mutant is the
// one the entry describes and not some other line's.
func TestLedgerEditsApply(t *testing.T) {
	names := map[string]bool{}
	for _, m := range ledger {
		if names[m.Name] {
			t.Errorf("%s: two entries share the name", m.Name)
		}
		names[m.Name] = true
		if len(m.Edits) == 0 {
			t.Errorf("%s: no edits", m.Name)
		}
		if _, err := mutate(root, m); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

// TestLedgerKillersExist holds every named killer to a function in its
// package's test files, and every entry to at least one killer.
func TestLedgerKillersExist(t *testing.T) {
	funcs := map[string]map[string]bool{}
	for _, m := range ledger {
		if len(m.Tests) == 0 && m.Simlint == "" {
			t.Errorf("%s: names no killer", m.Name)
		}
		for pkg, killers := range m.Tests {
			if funcs[pkg] == nil {
				fs, err := testFuncs(filepath.Join(root, pkg))
				if err != nil {
					t.Fatal(err)
				}
				funcs[pkg] = fs
			}
			if len(killers) == 0 {
				t.Errorf("%s: package %s names no killer", m.Name, pkg)
			}
			for _, k := range killers {
				if !funcs[pkg][k] {
					t.Errorf("%s: no func %s in the tests of %s", m.Name, k, pkg)
				}
			}
		}
	}
}

// TestVerdict pins the runner's reading of go test output: a kill is every
// named killer on a --- FAIL line, and anything else keeps the mutant alive.
func TestVerdict(t *testing.T) {
	killers := []string{"TestA", "TestB"}
	for _, c := range []struct {
		name, out, want string
	}{
		{"both fail", "--- FAIL: TestA (0.00s)\n    x_test.go:9: bad\n--- FAIL: TestB (0.01s)\nFAIL\nFAIL\trepro/x\t0.1s\n", ""},
		{"one passes", "--- FAIL: TestA (0.00s)\nFAIL\nFAIL\trepro/x\t0.1s\n", "no --- FAIL from TestB"},
		{"subtest only", "--- FAIL: TestA (0.00s)\n    --- FAIL: TestB/sub (0.00s)\nFAIL\n", "no --- FAIL from TestB"},
		{"ok", "ok  \trepro/x\t0.2s\n", "the package passes"},
		{"no tests", "ok  \trepro/x\t0.2s [no tests to run]\n", "no named killer is in the package"},
		{"build", "# repro/x\nx.go:3:1: syntax error\nFAIL\trepro/x [build failed]\n", "the mutated tree does not build"},
		{"panic", "--- FAIL: TestA (0.00s)\npanic: boom [recovered]\nFAIL\trepro/x\t0.1s\n", "no --- FAIL from TestB"},
		{"crash", "panic: boom\n\ngoroutine 7 [running]:\nFAIL\trepro/x\t0.1s\n", "no --- FAIL from TestA, TestB"},
	} {
		if got := verdict(c.out, killers); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	files := []string{"internal/exp/runner.go"}
	for _, c := range []struct {
		name, out string
		code      int
		want      string
	}{
		{"reported", "/tmp/m/internal/exp/runner.go:12:3: [faultflow] recover() outside", 1, ""},
		{"suffix of another file", "/tmp/m/internal/exp/xrunner.go:12:3: [faultflow] recover() outside", 1, "no [faultflow] finding in internal/exp/runner.go"},
		{"clean", "", 0, "simlint exited 0, want 1 (findings)"},
		{"broken", "load error", 2, "simlint exited 2, want 1 (findings)"},
		{"other analyzer", "internal/exp/runner.go:12:3: [determinism] range over map", 1, "no [faultflow] finding in internal/exp/runner.go"},
		{"other file", "internal/gpu/gpu.go:12:3: [faultflow] recover() outside", 1, "no [faultflow] finding in internal/exp/runner.go"},
	} {
		if got := simlintVerdict(c.out, c.code, "faultflow", files); got != c.want {
			t.Errorf("simlint %s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// TestLedgerChecksItself feeds the two checks above the mistakes they exist
// for: an old text that is absent or occurs twice, and a killer with no func.
func TestLedgerChecksItself(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "a.go"), []byte("x := 1\ny := 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ old, want string }{
		{"x := 1", ""},
		{"z := 1", "occurs 0 times"},
		{":= 1", "occurs 2 times"},
	} {
		_, err := mutate(dir, Mutant{Edits: []Edit{{File: "a.go", Old: c.old, New: "q"}}})
		if got := fmt.Sprint(err); (c.want == "") != (err == nil) || (err != nil && !strings.Contains(got, c.want)) {
			t.Errorf("edit %q: error %v, want %q", c.old, err, c.want)
		}
	}
	fs, err := testFuncs(".")
	if err != nil {
		t.Fatal(err)
	}
	if !fs["TestLedgerChecksItself"] || fs["TestNoSuchKiller"] || fs["mutate"] {
		t.Errorf("testFuncs(.) = %v", fs)
	}
}
