package repro

import (
	"embed"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// The hand-written docs and the CI workflow, embedded rather than read so
// that `go test -overlay` (the mutant ledger) can hand this test an edited
// copy of any of them.
//
//go:embed README.md DESIGN.md EXPERIMENTS.md docs/*.md
//go:embed .claude/skills/verify/SKILL.md .github/workflows/ci.yml
var docs embed.FS

var (
	definedFunc = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w+)\(`)
	namedFunc   = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z]\w*`)
	// A path starts a word, so benchmark/internal/drivers is one path and
	// not also internal/drivers; "./" and "../" in front of it are dropped.
	namedPath = regexp.MustCompile(`(?m)(?:^|[^\w./-])(?:\.\.?/)?((?:internal|cmd|examples|bench|benchmark|docs)/[\w.*/-]*)`)
)

// TestDocsNameTheTree holds every test and path the docs write to the tree:
// a Test, Fuzz or Benchmark name must be a function some _test.go defines,
// or the prefix of one (CI's -run patterns name TestFrameWriter for all of
// TestFrameWriter*), and an internal/, cmd/, examples/, bench/, benchmark/
// or docs/ path must exist, or be the prefix of one that does
// (bench/BENCH_<date>.json, bench/PAIRS_*.txt).
func TestDocsNameTheTree(t *testing.T) {
	var defined []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range definedFunc.FindAllSubmatch(src, -1) {
			defined = append(defined, string(m[1]))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	isDefined := func(name string) bool {
		return slices.ContainsFunc(defined, func(d string) bool { return strings.HasPrefix(d, name) })
	}
	exists := func(path string) bool {
		m, _ := filepath.Glob(path + "*")
		return len(m) > 0
	}

	err = fs.WalkDir(docs, ".", func(doc string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		text, err := docs.ReadFile(doc)
		seen := map[string]bool{}
		report := func(what, name string) {
			if !seen[name] {
				seen[name] = true
				t.Errorf("%s names %s %s, which the tree does not have", doc, what, name)
			}
		}
		for _, name := range namedFunc.FindAllString(string(text), -1) {
			if !isDefined(name) {
				report("the test", name)
			}
		}
		for _, m := range namedPath.FindAllStringSubmatch(string(text), -1) {
			if path := strings.TrimRight(m[1], "./"); !exists(path) {
				report("the path", path)
			}
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}
