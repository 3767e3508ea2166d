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
//	go run ./cmd/simlint -analyzers determinism ./...
//	go run ./cmd/simlint -json ./...           # machine-readable findings
//	go run ./cmd/simlint -strict-allow ./...   # also flag stale //simlint:allow
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
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

// jsonDiag is one finding in -json output, one object per line
// (JSON Lines), stable fields for CI problem matchers and tooling.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

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
	only := fs.String("analyzers", "", "comma-separated analyzer subset (default: all)")
	asJSON := fs.Bool("json", false, "emit findings as JSON Lines on stdout")
	strictAllow := fs.Bool("strict-allow", false,
		"report stale //simlint:allow directives (suppressing nothing) as findings")
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
	analyzers := analysis.All
	if *only != "" {
		var err error
		analyzers, err = analysis.ByName(*only)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return exitError
		}
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

	runFn := analysis.RunAnalyzers
	if *strictAllow {
		runFn = analysis.RunAnalyzersStrict
	}
	diags, err := runFn(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return exitError
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		for _, d := range diags {
			jd := jsonDiag{
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Column:   d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			}
			if err := enc.Encode(jd); err != nil {
				fmt.Fprintln(stderr, err)
				return exitError
			}
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
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
