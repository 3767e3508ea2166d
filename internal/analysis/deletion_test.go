package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// These tests demonstrate the guards' sensitivity the way a regression
// would arrive: a minimal, fully wired package is clean, and deleting
// exactly one load-bearing line — a term of the CPI sum, a NextEvent
// consultation — makes the corresponding analyzer fire.

func snippetDiags(t *testing.T, name, src string, az *Analyzer) []Diagnostic {
	t.Helper()
	diags, err := RunAnalyzers(writeSnippet(t, name, src), []*Analyzer{az})
	if err != nil {
		t.Fatalf("RunAnalyzers: %v", err)
	}
	return diags
}

func wantClean(t *testing.T, diags []Diagnostic) {
	t.Helper()
	for _, d := range diags {
		t.Errorf("intact variant should be clean, got: %s", d)
	}
}

func wantFinding(t *testing.T, diags []Diagnostic, substr string) {
	t.Helper()
	for _, d := range diags {
		if strings.Contains(d.Message, substr) {
			return
		}
	}
	t.Errorf("no diagnostic contains %q; got %d diagnostics: %v", substr, len(diags), diags)
}

const cpiDemoSrc = `package cpidemo

type CPIComponent int

const (
	CPIBase CPIComponent = iota
	CPIMem
	NumCPIComponents
)

type StallReason int

const (
	StallNone StallReason = iota
	StallMem
	NumStallReasons
)

type SubCore struct {
	Cycles      int64
	StallCycles [NumStallReasons]int64
}

var cpiLedger = map[string]string{
	"Cycles":      "cycle: the CPIBase slice",
	"StallCycles": "cycle: per-reason buckets",
	"StallNone":   "event: marks an issued cycle at attribution time",
}

func (s *SubCore) CPI(c *[NumCPIComponents]float64) {
	c[CPIBase] = float64(s.Cycles)
	c[CPIMem] = float64(s.StallCycles[StallMem])
}
`

func TestCpiguardCatchesDeletedSumTerm(t *testing.T) {
	wantClean(t, snippetDiags(t, "cpidemo", cpiDemoSrc, Cpiguard))

	// Delete the CPIMem term of the sum: the component goes unassigned,
	// the stall reason unconsulted, and the counter unread — all three
	// statically visible consequences of the one-line regression.
	term := "\tc[CPIMem] = float64(s.StallCycles[StallMem])\n"
	if !strings.Contains(cpiDemoSrc, term) {
		t.Fatal("demo source drifted: sum term not found")
	}
	diags := snippetDiags(t, "cpidemo", strings.Replace(cpiDemoSrc, term, "", 1), Cpiguard)
	wantFinding(t, diags, "CPI component CPIMem is never assigned")
	wantFinding(t, diags, "stall reason StallMem is neither consulted")
	wantFinding(t, diags, "SubCore.StallCycles is classified cycle in cpiLedger but never read")
}

// writeFixtureTree materializes a multi-package fixture (relative path
// → source) under a temp dir and loads it the fixture way; sub-packages
// import each other as "fixture/<name>/<subdir>".
func writeFixtureTree(t *testing.T, name string, files map[string]string) []*Package {
	t.Helper()
	dir := filepath.Join(t.TempDir(), name)
	for rel, src := range files {
		p := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err := LoadFixture(dir)
	if err != nil {
		t.Fatalf("LoadFixture: %v", err)
	}
	return pkgs
}

var cfDemoFiles = map[string]string{
	"config/config.go": `package config

type GPU struct{ NumSMs int }

func Default() GPU { return GPU{NumSMs: 2} }
`,
	"cfdemo.go": `package cfdemo

import "fixture/cfdemo/config"

type device struct{ cfg config.GPU }

func newDevice(cfg config.GPU) *device { return &device{cfg: cfg} }

func build(sms int) *device {
	cfg := config.Default()
	cfg.NumSMs = sms
	return newDevice(cfg)
}
`,
}

func TestConfigfreezeCatchesUnfrozenWrite(t *testing.T) {
	diags, err := RunAnalyzers(writeFixtureTree(t, "cfdemo", cfDemoFiles), []*Analyzer{Configfreeze})
	if err != nil {
		t.Fatalf("RunAnalyzers: %v", err)
	}
	wantClean(t, diags)

	// Move the same field write to after construction: the config is
	// live and frozen, and the write must fire the guard.
	pre := "cfg.NumSMs = sms\n\treturn newDevice(cfg)"
	if !strings.Contains(cfDemoFiles["cfdemo.go"], pre) {
		t.Fatal("demo source drifted: pre-construction write not found")
	}
	mutated := map[string]string{
		"config/config.go": cfDemoFiles["config/config.go"],
		"cfdemo.go": strings.Replace(cfDemoFiles["cfdemo.go"], pre,
			"d := newDevice(cfg)\n\td.cfg.NumSMs = sms\n\treturn d", 1),
	}
	diags, err = RunAnalyzers(writeFixtureTree(t, "cfdemo", mutated), []*Analyzer{Configfreeze})
	if err != nil {
		t.Fatalf("RunAnalyzers: %v", err)
	}
	wantFinding(t, diags, "config field GPU.NumSMs written outside a constructor/option func")
}
