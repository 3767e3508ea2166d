// Command benchmark is the repository's simulator-speed ledger: five
// named workloads, end-to-end host-speed metrics with regression bounds,
// and per-layer attribution measured from outside the simulator. See
// README.md in this directory.
//
//	go run ./benchmark                       every workload, untraced then traced
//	go run ./benchmark -workload mem_bound   one workload, end-to-end metrics
//	go run ./benchmark -workload mem_bound -trace 1
//	go run ./benchmark -check-repeat         two untraced sets, compared against the bounds
//
// With -workload the run happens in this process and the last line of
// standard output is one JSON object (correct, attempted, failed,
// metrics). Without it every workload runs in its own child process, so
// each has its own set-up time and peak memory.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/benchmark/internal/measure"
	"repro/benchmark/internal/span"
	"repro/benchmark/internal/workload"
)

var processStart = time.Now()

// defaultSeconds is BENCHMARK.json's run_seconds. The driver that reads
// BENCHMARK.json passes it on every run, as
// `<command> --workload <name> --seed <n> --seconds <run_seconds> --trace <0|1>`;
// the default serves a run started by hand. Both sides of a comparison
// get the same value from the same file.
const defaultSeconds = 25

// Report is everything one run of one workload measured; -out writes it
// as JSON.
type Report struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Trace     bool     `json:"trace"`
	Passes    int      `json:"passes"`
	Repeats   int      `json:"repeats"` // further readings of the slowest cell
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// SimDigest is the SHA-256 over the cells' stats.Run JSON in name
	// order; equal digests mean equal simulated statistics.
	SimDigest string                    `json:"sim_digest"`
	Metrics   map[string]measure.Metric `json:"metrics"`
	Cells     []measure.CellStat        `json:"cells,omitempty"`
	// PassWalls is each timed pass's wall in seconds, in run order.
	PassWalls []float64 `json:"pass_walls_s,omitempty"`
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// errIncorrect is returned when a run completed but a correctness or
// repeatability check failed; the report has already been printed.
var errIncorrect = errors.New("a check failed (see the report above)")

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "run one workload in this process: "+strings.Join(workload.Names, ", ")+" (default: all, one child process each)")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same kernels")
	seconds := fs.Float64("seconds", defaultSeconds, "how long an untraced run measures; the driver passes BENCHMARK.json's run_seconds")
	trace := fs.Int("trace", 0, "1 = traced run: spans at layer boundaries, layer drivers, per-layer metrics")
	repeat := fs.Bool("check-repeat", false, "run the untraced set twice and compare every end-to-end metric against its bound")
	out := fs.String("out", "", "write the full report as JSON here (traced runs also write <out>.trace.json for Perfetto)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace takes 0 or 1, got %d", *trace)
	}
	if *name != "" && *repeat {
		return fmt.Errorf("-check-repeat runs every workload; drop -workload")
	}
	// Scratch files (the guard ring's checkpoints and frames, the children's
	// reports) go to a directory under the working directory, removed before
	// returning: nothing is left in the tree.
	dir, err := os.MkdirTemp(".", ".benchmark-tmp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if *name != "" {
		rep, err := one(dir, *name, *seed, *seconds, *trace == 1, *out)
		if err != nil {
			return err
		}
		printReport(stdout, rep)
		if err := printLastLine(stdout, rep); err != nil {
			return err
		}
		if !rep.Correct {
			return errIncorrect
		}
		return nil
	}
	if *repeat {
		return checkRepeat(ctx, stdout, dir, *seed, *seconds)
	}
	return all(ctx, stdout, dir, *seed, *seconds, *out)
}

// one runs a single workload in this process.
func one(dir, name string, seed int64, seconds float64, traced bool, out string) (*Report, error) {
	untilMain := time.Since(processStart)
	var rec *span.Recorder
	if traced {
		rec = span.New()
	}
	r, setup, err := measure.Setup(name, seed, 1, dir, rec, untilMain)
	if err != nil {
		return nil, err
	}
	rep := &Report{Workload: name, Seed: seed, Trace: traced}
	if traced {
		if rep.Metrics, err = measure.Traced(r); err != nil {
			return nil, err
		}
		rep.Passes = 1
		if out != "" {
			if err := writeFile(strings.TrimSuffix(out, ".json")+".trace.json", r.Rec.WriteChrome); err != nil {
				return nil, err
			}
		}
	} else {
		passes, repeats, err := measure.Untraced(r, seconds)
		if err != nil {
			return nil, err
		}
		rss, err := measure.PeakRSSMB()
		if err != nil {
			return nil, err
		}
		rep.Passes = len(passes)
		rep.Repeats = len(repeats)
		rep.Cells = measure.CellTable(passes, repeats)
		rep.Metrics = measure.EndToEndMetrics(passes, rep.Cells, setup, rss)
		for k, v := range measure.FidelityMetrics(r, &passes[0]) {
			rep.Metrics[k] = v
		}
		for i := range passes {
			rep.PassWalls = append(rep.PassWalls, passes[i].Wall)
		}
	}
	r.Oracle.CheckFidelity(rep.Metrics["rba_gain_err_pp"].Value)
	rep.Attempted, rep.Failed, rep.Failures = r.Checked()
	rep.Correct = rep.Failed == 0
	rep.SimDigest = r.Oracle.Digest()
	if out != "" {
		err = writeJSON(out, rep)
	}
	return rep, err
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeJSON(path string, v any) error {
	return writeFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
}

// defsFor lists the metric definitions a report of this kind carries.
func defsFor(traced bool) []measure.Def {
	if traced {
		return append(append([]measure.Def(nil), measure.PerLayer...), measure.Fidelity...)
	}
	return append(append([]measure.Def(nil), measure.EndToEnd...), measure.Fidelity...)
}

func boundText(d measure.Def) string {
	switch {
	case d.Bound > 0:
		return fmt.Sprintf("%.0f%%", d.Bound*100)
	case d.Name == "rba_gain_err_pp":
		return "0.25pp"
	case d.Name == "cells_failed_pct":
		return "any"
	}
	return "-"
}

func printReport(w io.Writer, rep *Report) {
	fmt.Fprintf(w, "workload %s  seed %d  trace %v  passes %d  repeats of the slowest cell %d\n", rep.Workload, rep.Seed, rep.Trace, rep.Passes, rep.Repeats)
	fmt.Fprintf(w, "  why: %s\n", workload.Why[rep.Workload])
	fmt.Fprintf(w, "  sim_digest %s\n", rep.SimDigest)
	fmt.Fprintf(w, "  cells attempted %d, failed %d\n", rep.Attempted, rep.Failed)
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	fmt.Fprintf(w, "  %-34s %14s %-12s %-7s %-6s %s\n", "metric", "value", "unit", "better", "bound", "q1 .. q3 (n)")
	for _, d := range defsFor(rep.Trace) {
		m := rep.Metrics[d.Name]
		spread := ""
		if m.N > 1 {
			spread = fmt.Sprintf("%.6g .. %.6g (%d)", m.Q1, m.Q3, m.N)
		}
		fmt.Fprintf(w, "  %-34s %14.6g %-12s %-7s %-6s %s\n", d.Name, m.Value, d.Unit, d.Better, boundText(d), spread)
	}
	if len(rep.Cells) > 0 {
		fmt.Fprintf(w, "  %-28s %10s %10s %12s %12s %12s\n", "cell", "kinstr", "kcycles", "raw_s", "scaled_s", "kinstr/s")
		for _, c := range rep.Cells {
			fmt.Fprintf(w, "  %-28s %10.1f %10.1f %12.6f %12.6f %12.1f\n", c.Name, float64(c.Instructions)/1e3, float64(c.Cycles)/1e3, c.Wall.Median, c.Scaled.Median, c.KInstrPerS)
		}
	}
	fmt.Fprintln(w, "  simulated results are compared to the paper's Fig 10 figure only: no silicon reference is held, so no error against hardware is given")
}

// printLastLine prints the driver's contract line: with tracing off every
// end-to-end metric, with tracing on every per-layer metric.
func printLastLine(w io.Writer, rep *Report) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, map[string]value{}}
	defs := measure.EndToEnd
	if rep.Trace {
		defs = defsFor(true)
	}
	for _, d := range defs {
		line.Metrics[d.Name] = value{rep.Metrics[d.Name].Value, d.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// child runs one workload in a child process of this binary and returns
// its report. The child's standard output is passed through.
func child(ctx context.Context, stdout io.Writer, dir, name string, seed int64, seconds float64, traced bool, out string) (*Report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if out == "" {
		out = filepath.Join(dir, fmt.Sprintf("%s-%v.json", name, traced))
	}
	t := "0"
	if traced {
		t = "1"
	}
	// A report left at a caller-chosen -out by an earlier invocation must not
	// pass for this child's, should the child die before writing its own.
	if err := os.Remove(out); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe, "-workload", name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", t, "-out", out)
	cmd.Stdout, cmd.Stderr = stdout, os.Stderr
	runErr := cmd.Run() // waits for the child to end, also when ctx kills it
	// A child whose checks failed exits non-zero after writing its report;
	// the report says so, and the caller decides. Without a report the exit
	// status is all there is.
	b, err := os.ReadFile(out)
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", name, runErr)
		}
		return nil, err
	}
	rep := new(Report)
	if err := json.Unmarshal(b, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// all runs every workload untraced, then traced, and prints the ledger.
func all(ctx context.Context, stdout io.Writer, dir string, seed int64, seconds float64, out string) error {
	var reports []*Report
	correct := true
	for _, traced := range []bool{false, true} {
		for _, name := range workload.Names {
			o := ""
			if out != "" {
				o = fmt.Sprintf("%s.%s.trace%v.json", strings.TrimSuffix(out, ".json"), name, traced)
			}
			rep, err := child(ctx, stdout, dir, name, seed, seconds, traced, o)
			if err != nil {
				return err
			}
			reports = append(reports, rep)
			correct = correct && rep.Correct
		}
	}
	printLedger(stdout, reports)
	if out != "" {
		if err := writeJSON(out, reports); err != nil {
			return err
		}
	}
	if !correct {
		return errIncorrect
	}
	return nil
}

// printLedger prints every metric by name, with unit, direction and
// bound, one column per workload.
func printLedger(w io.Writer, reports []*Report) {
	for _, traced := range []bool{false, true} {
		cols := map[string]*Report{}
		for _, r := range reports {
			if r.Trace == traced {
				cols[r.Workload] = r
			}
		}
		if len(cols) == 0 {
			continue
		}
		fmt.Fprintf(w, "\n%-34s %-12s %-7s %-6s", "metric", "unit", "better", "bound")
		for _, n := range workload.Names {
			fmt.Fprintf(w, " %14s", n)
		}
		fmt.Fprintln(w)
		for _, d := range defsFor(traced) {
			fmt.Fprintf(w, "%-34s %-12s %-7s %-6s", d.Name, d.Unit, d.Better, boundText(d))
			for _, n := range workload.Names {
				if r := cols[n]; r != nil {
					fmt.Fprintf(w, " %14.6g", r.Metrics[d.Name].Value)
				} else {
					fmt.Fprintf(w, " %14s", "-")
				}
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "%-62s", "sim_digest (first 12)")
		for _, n := range workload.Names {
			if r := cols[n]; r != nil {
				fmt.Fprintf(w, " %14s", short(r.SimDigest))
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "this ledger claims no gain; it is the baseline later changes are measured against")
}

// checkRepeat runs the untraced set twice and fails when the two sets
// disagree (see compareSets).
func checkRepeat(ctx context.Context, stdout io.Writer, dir string, seed int64, seconds float64) error {
	var sets [2]map[string]*Report
	for i := range sets {
		sets[i] = map[string]*Report{}
		for _, name := range workload.Names {
			rep, err := child(ctx, io.Discard, dir, name, seed, seconds, false, filepath.Join(dir, fmt.Sprintf("set%d-%s.json", i, name)))
			if err != nil {
				return err
			}
			if !rep.Correct {
				return fmt.Errorf("%s: set %d failed its correctness checks: %v", name, i+1, rep.Failures)
			}
			sets[i][name] = rep
		}
	}
	if !compareSets(stdout, sets[0], sets[1]) {
		return errIncorrect
	}
	return nil
}

// compareSets prints, per workload x end-to-end metric, both values, both
// inter-quartile ranges, the relative difference and PASS or FAIL, and
// reports whether every row passed: the two values of a bounded metric
// within its bound of each other, either way round, and the exact values
// (fidelity metrics, sim_digest) equal.
func compareSets(stdout io.Writer, first, second map[string]*Report) bool {
	ok := true
	verdict := func(pass bool) string {
		if pass {
			return "PASS"
		}
		ok = false
		return "FAIL"
	}
	fmt.Fprintf(stdout, "%-14s %-18s %12s %10s %12s %10s %8s %6s %s\n", "workload", "metric", "value_1", "iqr_1", "value_2", "iqr_2", "diff", "bound", "")
	for _, name := range workload.Names {
		a, b := first[name], second[name]
		for _, d := range measure.EndToEnd {
			ma, mb := a.Metrics[d.Name], b.Metrics[d.Name]
			diff := (mb.Value - ma.Value) / ma.Value
			fmt.Fprintf(stdout, "%-14s %-18s %12.6g %10.3g %12.6g %10.3g %+7.2f%% %5.0f%% %s\n", name, d.Name,
				ma.Value, ma.Q3-ma.Q1, mb.Value, mb.Q3-mb.Q1, 100*diff, 100*d.Bound, verdict(diff <= d.Bound && diff >= -d.Bound))
		}
		for _, d := range measure.Fidelity {
			fmt.Fprintf(stdout, "%-14s %-18s %12.6g %10s %12.6g %10s %8s %6s %s\n", name, d.Name,
				a.Metrics[d.Name].Value, "-", b.Metrics[d.Name].Value, "-", "exact", "0", verdict(a.Metrics[d.Name].Value == b.Metrics[d.Name].Value))
		}
		fmt.Fprintf(stdout, "%-14s %-18s %12s %10s %12s %10s %8s %6s %s\n", name, "sim_digest", short(a.SimDigest), "-", short(b.SimDigest), "-", "exact", "0", verdict(a.SimDigest == b.SimDigest))
	}
	return ok
}

// short abbreviates a digest for a table column.
func short(digest string) string {
	if len(digest) > 12 {
		return digest[:12]
	}
	return digest
}
