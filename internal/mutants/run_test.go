//go:build mutants

package mutants

import (
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestMutantsAreKilled applies every ledger entry and requires each named
// killer to report it. Test killers run against the tree itself through
// `go test -overlay`, which leaves every file on disk untouched. simlint
// reads source from disk, so an entry it must catch runs on one copy of the
// module, shared by those entries in turn, with the edits written in and
// then undone. One entry:
//
//	go test -tags mutants -run 'TestMutantsAreKilled/^cache-victim-last-smallest$' ./internal/mutants
func TestMutantsAreKilled(t *testing.T) {
	abs, err := filepath.Abs(root)
	if err != nil {
		t.Fatal(err)
	}
	lint := &simlintTree{dir: t.TempDir()}
	lint.bin = filepath.Join(lint.dir, "simlint")
	if out, err := goCmd(abs, "build", "-o", lint.bin, "./cmd/simlint"); err != nil {
		t.Fatalf("build simlint: %v\n%s", err, out)
	}
	lint.dir = filepath.Join(lint.dir, "module")
	if err := copyModule(abs, lint.dir); err != nil {
		t.Fatal(err)
	}
	for _, m := range ledger {
		t.Run(m.Name, func(t *testing.T) {
			t.Parallel()
			files, err := mutate(abs, m)
			if err != nil {
				t.Fatal(err)
			}
			if len(m.Tests) > 0 {
				runTests(t, abs, m, files)
			}
			if m.Simlint != "" {
				lint.run(t, m, files)
			}
		})
	}
}

// runTests runs each package's killers with the mutated files overlaid.
func runTests(t *testing.T, abs string, m Mutant, files map[string]string) {
	dir := t.TempDir()
	overlay := map[string]map[string]string{"Replace": {}}
	for name, src := range files {
		tmp := filepath.Join(dir, strings.ReplaceAll(name, "/", "_"))
		if err := os.WriteFile(tmp, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		overlay["Replace"][filepath.Join(abs, name)] = tmp
	}
	b, err := json.Marshal(overlay)
	if err != nil {
		t.Fatal(err)
	}
	ov := filepath.Join(dir, "overlay.json")
	if err := os.WriteFile(ov, b, 0o644); err != nil {
		t.Fatal(err)
	}
	pkgs := make([]string, 0, len(m.Tests))
	for pkg := range m.Tests {
		pkgs = append(pkgs, pkg)
	}
	sort.Strings(pkgs)
	for _, pkg := range pkgs {
		// The overlay rides GOFLAGS, so that a killer which runs the go
		// command itself (TestPerCycleHelpersInline) builds the mutant too.
		cmd := exec.Command("go", "test", "-count=1", "-vet=off", "-timeout=2m",
			"-run", runPattern(m.Tests[pkg]), "./"+pkg)
		cmd.Dir = abs
		cmd.Env = append(os.Environ(), "GOFLAGS="+strings.TrimSpace(os.Getenv("GOFLAGS")+" -overlay="+ov))
		b, _ := cmd.CombinedOutput()
		out := string(b)
		if v := verdict(out, m.Tests[pkg]); v != "" {
			t.Errorf("%s: %s\n%s", pkg, v, tail(out))
		}
	}
}

// simlintTree is a copy of the module that simlint entries take turns on.
type simlintTree struct {
	mu  sync.Mutex
	dir string // the copy
	bin string // simlint, built from the tree under test
}

// run runs simlint over the copy with m's mutated files written in, and
// puts the copy back as it was.
func (l *simlintTree) run(t *testing.T, m Mutant, files map[string]string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for name, src := range files {
		path := filepath.Join(l.dir, name)
		orig, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			// Every later simlint entry reads this copy.
			if err := os.WriteFile(path, orig, 0o644); err != nil {
				t.Errorf("restore %s: %v", name, err)
			}
		}()
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cmd := exec.Command(l.bin, "./...")
	cmd.Dir = l.dir
	b, err := cmd.CombinedOutput()
	code := 0
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	if v := simlintVerdict(string(b), code, m.Simlint, editedFiles(m)); v != "" {
		t.Errorf("simlint: %s\n%s", v, tail(string(b)))
	}
}

// copyModule copies the module at src to dst, leaving out dot directories
// (.git, build caches).
func copyModule(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			if rel != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
}

// runPattern is the -run pattern that selects exactly the killers.
func runPattern(killers []string) string {
	return "^(" + strings.Join(killers, "|") + ")$"
}

// editedFiles lists the files m edits, sorted.
func editedFiles(m Mutant) []string {
	seen := map[string]bool{}
	var files []string
	for _, e := range m.Edits {
		if !seen[e.File] {
			seen[e.File] = true
			files = append(files, e.File)
		}
	}
	sort.Strings(files)
	return files
}

// goCmd runs the go command in dir and returns its combined output.
func goCmd(dir string, args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	b, err := cmd.CombinedOutput()
	return string(b), err
}

// tail is the last lines of a command's output, enough to show a verdict's
// cause in the test log.
func tail(out string) string {
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) > 30 {
		lines = lines[len(lines)-30:]
	}
	return strings.Join(lines, "\n")
}
