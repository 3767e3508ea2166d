// Command sweep runs a custom (configuration x application) matrix and
// prints a CSV of cycles, IPC, bank conflicts, and issue CoV — the
// building block for studies beyond the paper's figures.
//
// Usage:
//
//	sweep -apps pb-mriq,rod-srad -configs gto,rba,fc
//	sweep -suite cugraph -configs gto,rba,srr,shuffle,fc -sms 4
//	sweep -sensitive -configs gto,rba+shuffle,fc+rba,rba+4bank,lat5+rba > rba_study.csv
//	sweep -sensitive -checkpoint run.ckpt -diag diag/      # fault-tolerant campaign
//
// -sms N builds the full V100 memory system behind N SMs: 640 B/cycle of
// DRAM bandwidth and a 6 MB L2. cmd/experiments runs exp.Base() instead —
// 4 SMs with 32 B/cycle and a 307 KB L2, plus exp.DeviceFor's TPC-H
// bandwidth share — so `sweep -sensitive -configs gto,rba` does not
// reproduce fig10's cells.
//
// Each -configs entry is a design in the grammar of internal/config's
// package comment (subcoresim's -config reads the same). The entry, as
// typed, labels the design in the CSV, the checkpoint and the snapshot
// files, so each must be unique and non-empty.
//
// The matrix executes on the fault-tolerant harness (internal/harness,
// docs/ROBUSTNESS.md): cells run in parallel under panic isolation, a
// per-cell wall-clock -timeout, a simulated-cycle cap (-max-cycles), and
// a forward-progress watchdog (-watchdog). A faulted cell is reported on
// stderr — with a flight-recorder dump under -diag when set — and the
// remaining cells keep running; the exit status is 1 if any cell
// faulted. With -checkpoint, completed cells stream to an append-only
// JSONL file and a re-run on the same apps, designs and -sms resumes,
// re-running only the missing/faulted cells; how the run is watched
// (-audit, -no-fastforward, -timeout, …) may differ between the two
// (docs/ROBUSTNESS.md). Interrupting with Ctrl-C or SIGTERM checkpoints
// cleanly. The file is also the sweep's full machine-readable result:
// each line is the run record (harness.Record) `subcoresim -json` prints
// for that cell.
//
// With -snapshot-dir, each in-flight cell additionally persists its full
// mid-kernel device state — periodically under -snapshot-interval, and
// always on a graceful shutdown signal — and a restart on the same
// directory continues those cells mid-kernel with byte-identical final
// statistics (docs/ROBUSTNESS.md). -audit N arms the runtime
// invariant auditor every N cycles of work; a corrupted simulation dies as a
// structured audit fault instead of producing silently wrong numbers.
//
// With -metrics-addr the sweep serves live telemetry over HTTP for its
// duration (docs/OBSERVABILITY.md): `curl $addr/metrics` returns
// Prometheus-format counters and gauges — per-cell heartbeat progress,
// faults by kind, the aggregated CPI stack.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/config"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/workloads"
)

func main() {
	var (
		appsFlag  = flag.String("apps", "", "comma-separated application names")
		suite     = flag.String("suite", "", "run a whole suite")
		sensitive = flag.Bool("sensitive", false, "run the Table III sensitive subset")
		cfgsFlag  = flag.String("configs", "gto,rba", "comma-separated designs: [v100|fc] then +-joined modifiers gto|lrr|rba, rr|srr|shuffle, steal, Ncu, Nbank, latN (e.g. gto,rba+4cu,fc+srr)")
		sms       = flag.Int("sms", 4, "number of SMs")
		timeout   = flag.Duration("timeout", 0, "per-cell wall-clock budget (0 = unlimited)")
		maxCycles = flag.Int64("max-cycles", 0, "per-kernel simulated-cycle cap (0 = simulator default)")
		watchdog  = flag.Duration("watchdog", time.Second, "forward-progress watchdog interval (0 = disabled)")
		workers   = flag.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS)")
		ckpt      = flag.String("checkpoint", "", "append completed cells to this JSONL file and resume from it")
		diag      = flag.String("diag", "", "write flight-recorder dumps for faulted cells to this directory")
		metricsAt = flag.String("metrics-addr", "", "serve live telemetry on this address (e.g. 127.0.0.1:9090; empty = off)")
		noFF      = flag.Bool("no-fastforward", false, "disable the idle-cycle fast-forward (debugging escape hatch; results are identical, only slower)")
		snapDir   = flag.String("snapshot-dir", "", "persist per-cell mid-kernel device snapshots to this directory; cells whose frame is already there resume from it, with results byte-identical to uninterrupted runs")
		snapEvery = flag.Int64("snapshot-interval", 0, "period between periodic snapshots, in cycles of work: one is every sub-core of the device awake for a cycle, so sleeping sub-cores and slept cycles do not count (0 = only the final frame on SIGTERM/Ctrl-C; refused without -snapshot-dir)")
		auditEv   = flag.Int64("audit", 0, "run the runtime invariant auditor on the first heartbeat and then every N cycles of work (one is every sub-core of the device awake for a cycle); violations fault the cell as a structured audit fault (0 = off)")
	)
	flag.Parse()

	apps, err := selectApps(*appsFlag, *suite, *sensitive)
	if err != nil {
		fatal(err)
	}
	designs, err := entries("configs", *cfgsFlag)
	if err != nil {
		fatal(err)
	}
	var cfgs []repro.Config
	var names []string
	for _, tok := range designs {
		c, err := config.Design(tok, *sms)
		if err != nil {
			fatal(err)
		}
		c.NoFastForward, c.AuditEvery = *noFF, *auditEv
		cfgs = append(cfgs, c)
		names = append(names, tok)
	}

	// Ctrl-C and SIGTERM cancel the sweep gracefully: completed cells are
	// already in the checkpoint, and with -snapshot-dir each in-flight
	// cell writes a final mid-kernel frame on its way down — a re-run on
	// the same directory continues those cells where the signal landed
	// instead of re-simulating them.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	// Live telemetry: counters/gauges scrapeable for the sweep's
	// duration; a hung cell shows as a stalled heartbeat gauge.
	var reg *metrics.Registry
	if *metricsAt != "" {
		reg = metrics.New()
		srv, err := metrics.Serve(*metricsAt, reg)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "sweep: telemetry at http://%s/metrics\n", srv.Addr())
	}

	res, err := harness.Run(ctx, cfgs, names, apps, harness.Options{
		Workers:          *workers,
		Timeout:          *timeout,
		MaxCycles:        *maxCycles,
		WatchdogInterval: *watchdog,
		CheckpointPath:   *ckpt,
		DiagDir:          *diag,
		SnapshotDir:      *snapDir,
		SnapshotInterval: *snapEvery,
		Metrics:          reg,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		fatal(err)
	}

	fmt.Println("app,config," + stats.CSVHeader)
	for i, app := range apps {
		for j := range cfgs {
			r := res.Runs[i][j]
			if r == nil {
				continue // faulted; reported via Logf and the summary
			}
			sum := stats.Summarize(r)
			fmt.Printf("%s,%s,%s\n", app.Name, names[j], sum.CSVRow())
		}
	}
	if !res.Complete() {
		fmt.Fprintf(os.Stderr, "sweep: %d/%d cells faulted (%d completed", len(res.Errs),
			len(apps)*len(cfgs), len(apps)*len(cfgs)-len(res.Errs))
		if *ckpt != "" {
			fmt.Fprintf(os.Stderr, "; rerun with -checkpoint %s to retry only the faulted cells", *ckpt)
		}
		fmt.Fprintln(os.Stderr, ")")
		os.Exit(1)
	}
}

func selectApps(list, suite string, sensitive bool) ([]repro.App, error) {
	switch {
	case list != "":
		names, err := entries("apps", list)
		if err != nil {
			return nil, err
		}
		var out []repro.App
		for _, name := range names {
			a, err := repro.AppByName(name)
			if err != nil {
				return nil, err
			}
			out = append(out, a)
		}
		return out, nil
	case suite != "":
		out, err := repro.AppsBySuite(suite)
		if err != nil {
			return nil, err
		}
		if len(out) == 0 {
			suites, serr := workloads.Suites()
			if serr != nil {
				return nil, serr
			}
			return nil, fmt.Errorf("unknown suite %q (have %v)", suite, suites)
		}
		return out, nil
	case sensitive:
		return repro.SensitiveWorkloads()
	default:
		return repro.Workloads()
	}
}

// entries splits a comma-separated flag value into its trimmed entries and
// refuses an empty one: in -configs it would be the baseline design under
// the label "", a cell nobody asked for.
func entries(flagName, list string) ([]string, error) {
	out := strings.Split(list, ",")
	for i, e := range out {
		if out[i] = strings.TrimSpace(e); out[i] == "" {
			return nil, fmt.Errorf("-%s entry %d of %d is empty", flagName, i+1, len(out))
		}
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
