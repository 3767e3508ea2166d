// Command subcoresim runs benchmark applications on GPU configurations —
// one cell, or an (application × design) matrix — and prints each cell's
// statistics: cycles, IPC, per-sub-core issue balance, stall breakdown,
// bank conflicts, cache behaviour and the top-down CPI stack.
//
// Usage:
//
//	subcoresim -app pb-mriq
//	subcoresim -app tpcU-q8 -config srr -sms 20
//	subcoresim -app rod-srad -config rba+4cu
//	subcoresim -app rod-srad -config-file dev.json -config lat5+rba
//	subcoresim -app pb-mriq -chrome-trace out.json   # open in ui.perfetto.dev
//	subcoresim -app pb-mriq -format json > run.json  # the run record (harness.Record)
//	subcoresim -app pb-mriq,rod-srad -config gto,rba,fc -format csv
//	subcoresim -suite cugraph -config gto,rba,srr,shuffle,fc -format csv
//	subcoresim -sensitive -config gto,rba -checkpoint run.ckpt -diag diag/ -format csv
//	subcoresim -list
//
// -app takes comma-separated application names ("all" alone is every
// application); -suite and -sensitive select a suite or the Table III
// sensitive subset instead. -config takes comma-separated designs, each in
// the grammar of internal/config's package comment: an optional preset,
// then +-joined modifiers. On top of -config-file the modifiers override
// what the file says and an absent one changes nothing. A design's label
// is its entry as typed; it keys the output, the checkpoint and the
// snapshot files, so each must be unique and non-empty. A lone empty
// -config (the default) is the preset, or the -config-file, as it is,
// labelled by its name.
//
// -format says how each cell prints: text is the report, csv one row per
// cell under a header, json one run record per line, encoded exactly as
// the -checkpoint file holds it. Under csv and json stdout holds the
// cells alone; everything else the flags print goes to stderr.
//
// Without -config-file, -sms N builds the full V100 memory system behind N
// SMs: 640 B/cycle of DRAM bandwidth and a 6 MB L2. cmd/experiments runs exp.Base() instead —
// 4 SMs with 32 B/cycle and a 307 KB L2, plus exp.DeviceFor's TPC-H
// bandwidth share — so `subcoresim -sensitive -config gto,rba` does not
// reproduce fig10's cells.
//
// The cells execute on the fault-tolerant harness (internal/harness,
// docs/ROBUSTNESS.md): in parallel (-workers) under panic isolation, a
// per-cell wall-clock -timeout, a simulated-cycle cap (-max-cycles) and a
// forward-progress -watchdog. A faulted cell is reported on stderr — with
// a flight-recorder dump under -diag — and the others keep running. One
// cell's fault is the command's error; a matrix prints its completed cells
// and exits 1 with the fault count. With -checkpoint, completed cells
// stream to an append-only JSONL file and a re-run on the same apps,
// designs and -sms re-runs only the missing or faulted cells; how the run
// is watched (-audit, -no-fastforward, -timeout, …) may differ between the
// two. With -snapshot-dir each in-flight cell also persists its mid-kernel
// device state — under -snapshot-interval, and always on Ctrl-C or
// SIGTERM — and a restart on the same directory continues it with
// byte-identical statistics. -audit N arms the runtime invariant auditor.
//
// Observability (internal/trace), for one cell: -chrome-trace records SM
// 0's structured event stream (issue, stalls, bank grants, LSU,
// writebacks, block lifecycle) in a ring of the last 65,536 events —
// stderr says so when the run emitted more — plus sampled counters, and
// exports Chrome trace-event JSON; -trace and -timeline print terminal
// sparklines from the sampled counters alone, no ring armed. -metrics-addr
// serves live telemetry over HTTP for the run's duration (`curl
// $addr/metrics`, docs/OBSERVABILITY.md): per-cell heartbeat progress,
// faults by kind and the aggregated CPI stack, so a hung cell shows as a
// stalled gauge.
package main

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"repro"
	"repro/internal/config"
	"repro/internal/harness"
	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/plot"
	"repro/internal/stats"
	"repro/internal/trace"
)

// cfgFlags are the flags that shape the device configurations.
type cfgFlags struct {
	design, cfgFile *string
	sms             *int
	noFF            *bool
	auditEv         *int64
}

func registerCfgFlags(fs *flag.FlagSet) *cfgFlags {
	return &cfgFlags{
		design:  fs.String("config", "", "comma-separated designs: [v100|fc] then +-joined modifiers gto|lrr|rba, rr|srr|shuffle, steal, Ncu, Nbank, latN (e.g. gto,rba+4cu,fc+srr); with -config-file, modifiers only"),
		sms:     fs.Int("sms", 0, "number of SMs (0 = 4, or what -config-file says)"),
		cfgFile: fs.String("config-file", "", "JSON file of configuration overrides (base: VoltaV100)"),
		noFF:    fs.Bool("no-fastforward", false, "disable the idle-cycle fast-forward (debugging escape hatch; results are identical, only slower)"),
		auditEv: fs.Int64("audit", 0, "run the runtime invariant auditor on the first heartbeat and then every N cycles of work (one is every sub-core of the device awake for a cycle); violations fault the cell as a structured audit fault (0 = off)"),
	}
}

// designs assembles the configurations the parsed flags name and their
// labels: each -config entry at -sms SMs, or applied on top of
// -config-file, then how it is run. An entry is its own label; a lone
// empty -config is the preset or the file as it is, labelled by its Name.
func (f *cfgFlags) designs() (cfgs []config.GPU, names []string, err error) {
	machine := func(design string) (config.GPU, error) { return config.Design(design, cmp.Or(*f.sms, 4)) }
	if *f.cfgFile != "" {
		file, err := f.file()
		if err != nil {
			return nil, nil, err
		}
		machine = file.WithModifiers
	}
	toks := []string{""}
	if *f.design != "" {
		if toks, err = entries("config", *f.design); err != nil {
			return nil, nil, err
		}
	}
	for _, tok := range toks {
		cfg, err := machine(tok)
		if err != nil {
			return nil, nil, err
		}
		cfg.NoFastForward, cfg.AuditEvery = *f.noFF, *f.auditEv
		cfgs = append(cfgs, cfg)
		names = append(names, cmp.Or(tok, cfg.Name))
	}
	return cfgs, names, nil
}

// file is -config-file with -sms applied on top.
func (f *cfgFlags) file() (config.GPU, error) {
	r, err := os.Open(*f.cfgFile)
	if err != nil {
		return config.GPU{}, err
	}
	defer r.Close()
	cfg, err := config.FromJSON(r)
	if err == nil && *f.sms != 0 {
		cfg = cfg.WithSMs(*f.sms)
	}
	return cfg, err
}

// entries splits a comma-separated flag value into its trimmed entries and
// refuses an empty one: in -config it would be the baseline design under
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

// selectApps is the applications the flags name: -sensitive's Table III
// subset, a -suite, or the -app entries, where "all" alone is every
// application.
func selectApps(list, suite string, sensitive bool) ([]repro.App, error) {
	switch {
	case sensitive:
		return repro.SensitiveWorkloads()
	case suite != "":
		out, err := repro.AppsBySuite(suite)
		if err == nil && len(out) == 0 {
			suites, _ := repro.Suites()
			err = fmt.Errorf("unknown suite %q (have %v)", suite, suites)
		}
		return out, err
	case list == "all":
		return repro.Workloads()
	}
	names, err := entries("app", list)
	if err != nil {
		return nil, err
	}
	out := make([]repro.App, len(names))
	for i, name := range names {
		if out[i], err = repro.AppByName(name); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "subcoresim:", err)
		os.Exit(1)
	}
}

// run is the command: args are the command line, stdout and stderr the
// process's.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("subcoresim", flag.ExitOnError)
	cf := registerCfgFlags(fs)
	var (
		appList   = fs.String("app", "pb-mriq", `comma-separated application names (see -list; "all" = every application)`)
		suite     = fs.String("suite", "", "run a whole suite instead of -app")
		sensitive = fs.Bool("sensitive", false, "run the Table III sensitive subset instead of -app")
		list      = fs.Bool("list", false, "list applications and exit")
		format    = fs.String("format", "text", "output format: text (the report), csv (one row per cell) or json (one run record per line, as -checkpoint writes it)")
		trc       = fs.Bool("trace", false, "trace register-file reads/cycle on SM 0 and print a sparkline (one cell)")
		timeline  = fs.Bool("timeline", false, "print per-sub-core issue timelines for SM 0, the imbalance view (one cell)")
		chrome    = fs.String("chrome-trace", "", "write SM 0's event stream as Chrome trace-event JSON to this file (one cell)")
		workers   = fs.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS)")
		timeout   = fs.Duration("timeout", 0, "per-cell wall-clock budget (0 = unlimited)")
		maxCyc    = fs.Int64("max-cycles", 0, "per-kernel simulated-cycle cap (0 = simulator default)")
		watchdog  = fs.Duration("watchdog", time.Second, "forward-progress watchdog interval (0 = disabled)")
		ckpt      = fs.String("checkpoint", "", "append completed cells to this JSONL file and resume from it")
		diag      = fs.String("diag", "", "write flight-recorder dumps for faulted cells to this directory")
		metAddr   = fs.String("metrics-addr", "", "serve live telemetry on this address (e.g. 127.0.0.1:9090; empty = off)")
		snapDir   = fs.String("snapshot-dir", "", "persist per-cell mid-kernel device snapshots to this directory; a cell whose frame is already there resumes from it, with byte-identical results")
		snapEvr   = fs.Int64("snapshot-interval", 0, "period between periodic snapshots, in cycles of work: one is every sub-core of the device awake for a cycle, so sleeping sub-cores and slept cycles do not count (0 = only the final frame on SIGTERM/Ctrl-C; refused without -snapshot-dir)")
	)
	fs.Parse(args)

	if *list {
		w := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "name\tsuite\tsensitive\tkernels\tinstructions")
		apps, err := repro.Workloads()
		if err != nil {
			return err
		}
		for _, a := range apps {
			fmt.Fprintf(w, "%s\t%s\t%v\t%d\t%d\n", a.Name, a.Suite, a.Sensitive, len(a.Kernels), a.Instructions())
		}
		return w.Flush()
	}

	// -app, -suite and -sensitive each select the applications: a second
	// one would go unread.
	selectors := 0
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "app" || f.Name == "suite" || f.Name == "sensitive" {
			selectors++
		}
	})
	if selectors > 1 {
		return errors.New("-app, -suite and -sensitive each select the applications; give one")
	}
	if *format != "text" && *format != "csv" && *format != "json" {
		return fmt.Errorf("unknown -format %q (text, csv or json)", *format)
	}
	apps, err := selectApps(*appList, *suite, *sensitive)
	if err != nil {
		return err
	}
	cfgs, names, err := cf.designs()
	if err != nil {
		return err
	}

	// Ctrl-C and SIGTERM cancel the run gracefully: completed cells are
	// already in the checkpoint, and with -snapshot-dir each in-flight
	// cell writes a final mid-kernel frame on its way down.
	ctx, cancelRun := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancelRun()
	hopt := harness.Options{
		Workers:          *workers,
		Timeout:          *timeout,
		MaxCycles:        *maxCyc,
		WatchdogInterval: *watchdog,
		CheckpointPath:   *ckpt,
		DiagDir:          *diag,
		SnapshotDir:      *snapDir,
		SnapshotInterval: *snapEvr,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(stderr, format+"\n", args...)
		},
	}

	// The sampled counter time-series (internal/trace) drives -trace,
	// -timeline, and the counter tracks of -chrome-trace, one sample per
	// cycle under -trace and per 32 cycles otherwise. Only -chrome-trace
	// needs the event ring: the sparklines run on the sampler alone. A
	// tracer records one device, so the harness refuses it for a matrix.
	topt := trace.OptionsFor(&cfgs[0], 0)
	if topt.SamplePeriod = 32; *trc {
		topt.SamplePeriod = 1
	}
	if *chrome != "" {
		topt.RingCap = trace.DefaultRingCap
	}
	var tr *trace.Tracer
	if *trc || *timeline || *chrome != "" {
		tr = trace.New(topt)
		hopt.Tracer = tr
	}
	if *metAddr != "" {
		reg := metrics.New()
		srv, err := metrics.Serve(*metAddr, reg)
		if err != nil {
			return err
		}
		defer srv.Close()
		hopt.Metrics = reg
		fmt.Fprintf(stderr, "subcoresim: telemetry at http://%s/metrics\n", srv.Addr())
	}

	// A lone cell's fault, when it has one, is the error (the *SimFault
	// itself), ahead of the harness's own.
	cells := len(apps) * len(cfgs)
	res, err := harness.Run(ctx, cfgs, names, apps, hopt)
	if cells == 1 && res != nil && res.Errs[harness.Cell{}] != nil {
		return res.Errs[harness.Cell{}]
	}
	if err != nil {
		return err
	}

	// Under csv and json stdout is the cells and nothing else: the notices
	// and sparklines the other flags print move to stderr.
	side := stdout
	if *format != "text" {
		side = stderr
	}
	if *format == "csv" {
		fmt.Fprintln(stdout, "app,config,"+stats.CSVHeader)
	}
	enc := json.NewEncoder(stdout)
	for i, app := range apps {
		for j := range cfgs {
			r := res.Runs[i][j]
			if r == nil {
				continue // faulted; reported via Logf and the count below
			}
			rec := harness.NewRecord(app.Name, names[j], cfgs[j].MachineID(), r)
			switch *format {
			case "csv":
				fmt.Fprintf(stdout, "%s,%s,%s\n", rec.App, rec.Config, rec.CSVRow())
			case "json":
				if err := enc.Encode(rec); err != nil {
					return err
				}
			default:
				if i+j > 0 {
					fmt.Fprintln(stdout)
				}
				fmt.Fprintf(stdout, "app:            %s\nconfig:         %s\n", rec.App, rec.Config)
				rec.WriteText(stdout)
			}
		}
	}
	if !res.Complete() {
		hint := ""
		if *ckpt != "" {
			hint = "; rerun with -checkpoint " + *ckpt + " to retry only the faulted cells"
		}
		return fmt.Errorf("%d/%d cells faulted (%d completed%s)", len(res.Errs), cells, cells-len(res.Errs), hint)
	}
	if tr == nil {
		return nil
	}

	if *chrome != "" {
		f, err := os.Create(*chrome)
		if err != nil {
			return err
		}
		if err := trace.WriteChrome(f, tr); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(side, "\nwrote Chrome trace to %s (open in ui.perfetto.dev)\n", *chrome)
		if lost := tr.Overwritten(0); lost > 0 {
			fmt.Fprintf(stderr, "subcoresim: %s kept the last %d of %d events of SM 0 (the ring lapped; the counter tracks cover the whole run)\n",
				*chrome, topt.RingCap, int64(topt.RingCap)+lost)
		}
	}

	c := tr.Counters()
	if *trc && c != nil {
		vals := make([]float64, c.Samples())
		for i, v := range c.RFReads {
			// Each granted read is warp-wide: scale to 4-byte register
			// reads per cycle (Fig 14's unit) and normalize by the period.
			vals[i] = float64(v) * float64(isa.WarpSize) / float64(c.Period)
		}
		fmt.Fprintln(side, "\nSM0 register reads per cycle (Fig 14 style):")
		fmt.Fprintln(side, plot.Series(appNameShort(apps[0].Name), vals, 100))
	}
	if *timeline && c != nil {
		// Aggregate samples into display buckets of >= 32 cycles so the
		// sparkline stays comparable across sampling periods.
		bucket := 1
		if c.Period < 32 {
			bucket = (32 + c.Period - 1) / c.Period
		}
		fmt.Fprintf(side, "\nSM0 per-sub-core instructions issued (buckets of %d cycles):\n", bucket*c.Period)
		for sc, series := range c.IssueBySub {
			vals := make([]float64, 0, len(series)/bucket+1)
			for i := 0; i < len(series); i += bucket {
				var s float64
				for j := i; j < i+bucket && j < len(series); j++ {
					s += float64(series[j])
				}
				vals = append(vals, s)
			}
			fmt.Fprintln(side, plot.Series(fmt.Sprintf("sub-core %d", sc), vals, 100))
		}
	}
	return nil
}

func appNameShort(s string) string {
	if len(s) > 20 {
		return s[:20]
	}
	return s
}
