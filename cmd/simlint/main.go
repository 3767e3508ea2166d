// Command simlint runs the repository's custom static-analysis suite
// (internal/analysis) over the module and exits non-zero on findings.
// It is a tier-1 CI gate: the determinism and fault-flow rules it
// enforces are the source-level half of the guarantees
// determinism_test.go and the harness chaos tests check dynamically.
// See docs/STATIC_ANALYSIS.md.
//
// Usage:
//
//	go run ./cmd/simlint ./...                 # whole module
//	go run ./cmd/simlint ./internal/smcore     # one package
//	go run ./cmd/simlint -list                 # describe the analyzers
//	go run ./cmd/simlint internal/analysis/testdata/src/faultflow
//
// A directory argument under a testdata tree (which the go tool
// ignores) is loaded as a standalone fixture tree — the same path the
// golden tests use — so each analyzer's fixtures can be linted
// directly and demonstrably fail.
//
// Exit codes are part of the contract CI scripts rely on: 0 means the
// tree is clean, 1 means the analyzers produced findings, 2 means the
// run itself failed (bad flags, unloadable packages, internal error) —
// so a wrapper can distinguish "fix your code" from "fix the linter".
// Every analyzer always runs, and no comment waives a finding.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

// Exit codes, documented in the package comment and asserted by
// main_test.go.
const (
	exitClean    = 0
	exitFindings = 1
	exitError    = 2
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with the process edges injected: argv after the command
// name, the two output streams, and the exit code as the return value.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list analyzers and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: simlint [flags] [packages or fixture dirs]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return exitError
	}

	if *list {
		for _, a := range analysis.All {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return exitClean
	}

	rest := fs.Args()
	if len(rest) == 0 {
		rest = []string{"./..."}
	}
	var patterns []string
	var pkgs []*analysis.Package
	for _, a := range rest {
		if isFixtureDir(a) {
			fixture, err := analysis.LoadFixture(a)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return exitError
			}
			pkgs = append(pkgs, fixture...)
			continue
		}
		patterns = append(patterns, a)
	}
	if len(patterns) > 0 || len(pkgs) == 0 {
		loaded, err := analysis.Load(patterns...)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return exitError
		}
		pkgs = append(pkgs, loaded...)
	}

	diags, err := analysis.RunAnalyzers(pkgs, analysis.All)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return exitError
	}
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "simlint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		return exitFindings
	}
	return exitClean
}

// isFixtureDir reports whether arg names a directory of Go files inside
// a testdata tree — invisible to `go list` and loaded as a fixture.
func isFixtureDir(arg string) bool {
	if !strings.Contains(filepath.ToSlash(arg), "testdata/") {
		return false
	}
	fi, err := os.Stat(arg)
	return err == nil && fi.IsDir()
}
