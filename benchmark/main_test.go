package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/benchmark/internal/measure"
	"repro/benchmark/internal/workload"
)

// childEnv makes the test binary behave as the benchmark binary, so that
// child(), which re-executes os.Executable, can be tested.
const childEnv = "BENCHMARK_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// manifest mirrors BENCHMARK.json at the repository root.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// TestManifestMatchesCatalogue keeps BENCHMARK.json and the benchmark's
// own catalogue in step: same workloads, same metric names, units,
// directions and bounds, same run length.
func TestManifestMatchesCatalogue(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(m.Command, " "), "go run ./benchmark") || len(m.Paths) != 1 || m.Paths[0] != "benchmark" {
		t.Errorf("command %v, paths %v", m.Command, m.Paths)
	}
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, -seconds defaults to %d", m.RunSeconds, defaultSeconds)
	}
	if len(m.Workloads) != len(workload.Names) {
		t.Fatalf("%d workloads in the manifest, %d in the benchmark", len(m.Workloads), len(workload.Names))
	}
	for i, w := range m.Workloads {
		if w.Name != workload.Names[i] || w.Why != workload.Why[w.Name] || len(w.Why) > 200 || w.Why == "" {
			t.Errorf("workload %d: manifest has %q / %q", i, w.Name, w.Why)
		}
	}
	check := func(kind string, got []manifestMetric, want []measure.Def, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the manifest, %d in the catalogue", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: manifest has %+v, catalogue has %s %s %s", kind, i, g, d.Name, d.Unit, d.Better)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.Bound) {
				t.Errorf("%s %s: bound mismatch (catalogue %v)", kind, d.Name, d.Bound)
			}
			if len(d.Name) > 64 || len(d.Unit) > 16 {
				t.Errorf("%s %s: name or unit too long for the manifest", kind, d.Name)
			}
		}
	}
	check("end_to_end", m.EndToEnd, measure.EndToEnd, true)
	check("per_layer", m.PerLayer, defsFor(true), false)
}

func TestFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-trace", "2"},
		{"-workload", "issue_dense", "-check-repeat"},
		{"stray"},
		{"-no-such-flag"},
	} {
		var out bytes.Buffer
		if err := run(context.Background(), args, &out); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

// inTempDir moves the test to an empty working directory: a run makes its
// scratch directory under the working directory.
func inTempDir(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
}

// TestDriverInvocationParses: the driver appends exactly these arguments
// to BENCHMARK.json's command. They must get as far as building the
// workload, which here does not exist.
func TestDriverInvocationParses(t *testing.T) {
	inTempDir(t)
	var out bytes.Buffer
	err := run(context.Background(), []string{"--workload", "no_such_workload", "--seed", "3", "--seconds", "25", "--trace", "0"}, &out)
	if err == nil || !strings.Contains(err.Error(), "unknown workload") {
		t.Errorf("got %v, want the workload builder's error", err)
	}
}

func TestLastLineCarriesExactlyTheContractKeys(t *testing.T) {
	for _, traced := range []bool{false, true} {
		rep := &Report{Correct: true, Attempted: 3, Trace: traced, Metrics: map[string]measure.Metric{}}
		var out bytes.Buffer
		if err := printLastLine(&out, rep); err != nil {
			t.Fatal(err)
		}
		var line map[string]json.RawMessage
		if err := json.Unmarshal(out.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
			t.Errorf("last line keys: %s", out.String())
		}
		var metrics map[string]map[string]any
		if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		want := len(measure.EndToEnd)
		if traced {
			want = len(defsFor(true))
		}
		if len(metrics) != want {
			t.Errorf("traced=%v: %d metrics on the last line, want %d", traced, len(metrics), want)
		}
		for name, m := range metrics {
			if len(m) != 2 || m["value"] == nil || m["unit"] == nil {
				t.Errorf("%s: %v", name, m)
			}
		}
	}
}

// TestChildDoesNotTakeAStaleReportForItsOwn: a child that dies before
// writing its report (here: an unknown workload) must be an error, also
// when an earlier invocation left a report at the same -out path.
func TestChildDoesNotTakeAStaleReportForItsOwn(t *testing.T) {
	t.Setenv(childEnv, "1")
	inTempDir(t)
	out := filepath.Join(t.TempDir(), "report.json")
	if err := writeJSON(out, &Report{Workload: "no_such_workload", Correct: true}); err != nil {
		t.Fatal(err)
	}
	rep, err := child(context.Background(), os.Stderr, t.TempDir(), "no_such_workload", 1, 1, false, out)
	if err == nil {
		t.Fatalf("child returned the stale report %+v", rep)
	}
	if !strings.Contains(err.Error(), "no_such_workload") {
		t.Errorf("error %q does not name the workload", err)
	}
}

func TestCompareSets(t *testing.T) {
	set := func(kinstr, errPP float64, digest string) map[string]*Report {
		out := map[string]*Report{}
		for _, name := range workload.Names {
			out[name] = &Report{Workload: name, SimDigest: digest, Metrics: map[string]measure.Metric{
				"sim_kinstr_per_s": {Value: kinstr, Q1: kinstr - 1, Q3: kinstr + 1, N: 5},
				"slowest_cell_s":   {Value: 0.5}, "setup_s": {Value: 0.1}, "peak_rss_mb": {Value: 12},
				"rba_gain_err_pp": {Value: errPP}, "cells_failed_pct": {Value: 0},
			}}
		}
		return out
	}
	bound := measure.EndToEnd[0].Bound // sim_kinstr_per_s
	base := set(1000, 4.5, "0123456789abcdef")
	for _, c := range []struct {
		name   string
		second map[string]*Report
		want   bool
	}{
		{"the same readings", set(1000, 4.5, "0123456789abcdef"), true},
		{"inside the bound", set(1000*(1-bound/2), 4.5, "0123456789abcdef"), true},
		{"slower by more than the bound", set(1000*(1-bound)-1, 4.5, "0123456789abcdef"), false},
		{"faster by more than the bound", set(1000*(1+bound)+1, 4.5, "0123456789abcdef"), false},
		{"an exact value moved", set(1000, 4.6, "0123456789abcdef"), false},
		{"another digest", set(1000, 4.5, "fedcba9876543210"), false},
	} {
		var out bytes.Buffer
		if got := compareSets(&out, base, c.second); got != c.want {
			t.Errorf("%s: compareSets = %v, want %v\n%s", c.name, got, c.want, out.String())
		}
		rows := len(workload.Names) * (len(measure.EndToEnd) + len(measure.Fidelity) + 1)
		if n := strings.Count(out.String(), "PASS") + strings.Count(out.String(), "FAIL"); n != rows {
			t.Errorf("%s: %d verdicts printed, want one for each of %d rows", c.name, n, rows)
		}
	}
}
