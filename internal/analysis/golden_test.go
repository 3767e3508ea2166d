package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The golden-file harness: each analyzer has a fixture package under
// testdata/src/<name>/ whose offending lines carry `// want "regex"`
// comments (several quoted regexes per line are allowed). The runner
// loads the fixture, runs exactly that analyzer, and requires a perfect
// bipartite match: every diagnostic must satisfy a want on its line, and
// every want must be satisfied. The determinism fixture's old-style
// waiver comment carries a want, so a suppression layer brought back
// fails the test.

var (
	wantRe  = regexp.MustCompile(`//\s*want\s+(".*)$`)
	quoteRe = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)
)

type wantExpect struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	hit  bool
}

// collectWants scans the fixture's files for `// want` expectations.
func collectWants(t *testing.T, pkgs []*Package) []*wantExpect {
	t.Helper()
	var wants []*wantExpect
	for _, pkg := range pkgs {
		wants = append(wants, collectPkgWants(t, pkg)...)
	}
	return wants
}

func collectPkgWants(t *testing.T, pkg *Package) []*wantExpect {
	t.Helper()
	var wants []*wantExpect
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Pos()).Filename
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatalf("read fixture file: %v", err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			quotes := quoteRe.FindAllString(m[1], -1)
			if len(quotes) == 0 {
				t.Fatalf("%s:%d: malformed want comment (no quoted regex)", name, i+1)
			}
			for _, q := range quotes {
				pat, err := strconv.Unquote(q)
				if err != nil {
					t.Fatalf("%s:%d: unquote %s: %v", name, i+1, q, err)
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: compile want regex %q: %v", name, i+1, pat, err)
				}
				wants = append(wants, &wantExpect{file: name, line: i + 1, re: re, raw: pat})
			}
		}
	}
	return wants
}

func TestGolden(t *testing.T) {
	cases := []struct {
		dir      string
		analyzer *Analyzer
	}{
		{"determinism", Determinism},
		{"faultflow", Faultflow},
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			pkgs, err := LoadFixture(filepath.Join("testdata", "src", tc.dir))
			if err != nil {
				t.Fatalf("LoadFixture: %v", err)
			}
			diags, err := RunAnalyzers(pkgs, []*Analyzer{tc.analyzer})
			if err != nil {
				t.Fatalf("RunAnalyzers: %v", err)
			}
			if len(diags) == 0 {
				t.Fatalf("analyzer %s produced no findings on its fixture", tc.analyzer.Name)
			}
			wants := collectWants(t, pkgs)
			for _, d := range diags {
				matched := false
				for _, w := range wants {
					if w.hit || w.file != d.Pos.Filename || w.line != d.Pos.Line {
						continue
					}
					if w.re.MatchString(d.Message) {
						w.hit = true
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
			for _, w := range wants {
				if !w.hit {
					t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.raw)
				}
			}
		})
	}
}

// TestCleanTree is the tier-1 half of the contract: the suite must exit
// clean on the repository itself (go run ./cmd/simlint ./... in CI).
func TestCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := Load("repro/...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("Load matched no packages")
	}
	diags, err := RunAnalyzers(pkgs, All)
	if err != nil {
		t.Fatalf("RunAnalyzers: %v", err)
	}
	for _, d := range diags {
		t.Errorf("tree is not simlint-clean: %s", d)
	}
}
