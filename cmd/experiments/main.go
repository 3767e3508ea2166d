// Command experiments regenerates the paper's evaluation artifacts.
//
// Usage:
//
//	experiments -list           # available figure/table ids
//	experiments fig9 fig17      # run specific experiments
//	experiments all             # run everything, paper order
//	experiments -format csv fig12 > fig12.csv
//	experiments -format json fig13   # or md
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"repro"
	"repro/internal/exp"
	"repro/internal/harness"
)

func main() {
	list := flag.Bool("list", false, "list experiment ids and exit")
	format := flag.String("format", "text", "output format: text, csv, json, md")
	timeout := flag.Duration("timeout", 0, "per-sweep-cell wall-clock budget (0 = unlimited)")
	maxCycles := flag.Int64("max-cycles", 0, "per-kernel simulated-cycle cap (0 = simulator default)")
	flag.Parse()
	// Reject a format no table renders before simulating anything.
	if err := new(exp.Table).RenderAs(io.Discard, *format); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}

	// Experiment sweeps execute on the fault-tolerant harness; these
	// knobs bound each (app, config) cell of every experiment run below.
	exp.SweepOpts.Timeout = *timeout
	exp.SweepOpts.MaxCycles = *maxCycles
	exp.SweepOpts.Logf = func(f string, args ...any) {
		fmt.Fprintf(os.Stderr, f+"\n", args...)
	}

	if *list {
		for _, id := range repro.ExperimentIDs() {
			fmt.Println(id)
		}
		return
	}

	ids, err := resolveIDs(flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// Each experiment runs under panic isolation (harness.Guard): a bug
	// in one figure's driver reports a structured fault and a non-zero
	// exit after the remaining figures have run, instead of crashing the
	// whole batch.
	failed := 0
	for _, id := range ids {
		start := time.Now()
		err := harness.Guard(id, func() error {
			tbl, err := repro.Experiment(id)
			if err != nil {
				return err
			}
			return tbl.RenderAs(os.Stdout, *format)
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", id, err)
			failed++
			continue
		}
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", id, time.Since(start).Round(time.Millisecond))
	}
	// Figures share cells (the same design on the same application), and
	// each is simulated once per process.
	simulated, reused := exp.SweepCells()
	fmt.Fprintf(os.Stderr, "[%d sweep cells simulated, %d reused]\n", simulated, reused)
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "experiments: %d/%d experiment(s) failed\n", failed, len(ids))
		os.Exit(1)
	}
}

// resolveIDs checks every id before anything simulates, as the format is;
// "all", alone, is every experiment in paper order.
func resolveIDs(args []string) ([]string, error) {
	if len(args) == 0 {
		return nil, errors.New("usage: experiments [-list] <id>... | all")
	}
	known := repro.ExperimentIDs()
	if len(args) == 1 && args[0] == "all" {
		return known, nil
	}
	for _, id := range args {
		if !slices.Contains(known, id) {
			return nil, fmt.Errorf("experiments: unknown experiment %q (-list names them; \"all\" stands alone)", id)
		}
	}
	return args, nil
}
