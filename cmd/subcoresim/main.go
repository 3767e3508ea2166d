// Command subcoresim runs one benchmark application on one GPU
// configuration and prints its statistics: cycles, IPC, per-sub-core
// issue balance, stall breakdown, bank conflicts, and cache behaviour.
//
// Usage:
//
//	subcoresim -app pb-mriq
//	subcoresim -app tpcU-q8 -config srr -sms 20
//	subcoresim -app rod-srad -config rba+4cu
//	subcoresim -app rod-srad -config-file dev.json -config lat5+rba
//	subcoresim -app pb-mriq -chrome-trace out.json   # open in ui.perfetto.dev
//	subcoresim -app pb-mriq -json > run.json         # the run record (harness.Record)
//	subcoresim -list
//
// -config is a design in the grammar of internal/config's package comment
// (cmd/sweep's -configs reads the same): an optional preset, then +-joined
// modifiers. On top of -config-file the modifiers override what the file
// says and an absent one changes nothing.
//
// Observability (internal/trace): -chrome-trace records SM 0's structured
// event stream (issue, stalls, bank grants, LSU, writebacks, block
// lifecycle) in a ring of the last 65,536 events — stderr says so when the
// run emitted more — plus sampled counters, and exports Chrome trace-event
// JSON; -trace and -timeline print terminal sparklines from the sampled
// counters alone, no ring armed. -metrics-addr serves live telemetry over
// HTTP for the run's duration (`curl $addr/metrics`,
// docs/OBSERVABILITY.md): cycle and instruction counters updated at the
// monitor heartbeat, so a hung run shows as a stalled gauge. The text
// report ends with the top-down CPI stack (internal/stats): every
// sub-core cycle attributed to exactly one cause.
package main

import (
	"cmp"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"text/tabwriter"
	"time"

	"repro"
	"repro/internal/config"
	"repro/internal/harness"
	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/plot"
	"repro/internal/trace"
)

// cfgFlags are the flags that shape the device configuration.
type cfgFlags struct {
	design, cfgFile *string
	sms             *int
	noFF            *bool
	auditEv         *int64
}

func registerCfgFlags(fs *flag.FlagSet) *cfgFlags {
	return &cfgFlags{
		design:  fs.String("config", "", "design point: [v100|fc] then +-joined modifiers gto|lrr|rba, rr|srr|shuffle, steal, Ncu, Nbank, latN (e.g. rba+4cu); with -config-file, modifiers only"),
		sms:     fs.Int("sms", 0, "number of SMs (0 = 4, or what -config-file says)"),
		cfgFile: fs.String("config-file", "", "JSON file of configuration overrides (base: VoltaV100)"),
		noFF:    fs.Bool("no-fastforward", false, "disable the idle-cycle fast-forward (debugging escape hatch; results are identical, only slower)"),
		auditEv: fs.Int64("audit", 0, "run the runtime invariant auditor on the first heartbeat and then every N cycles of work (one is every sub-core of the device awake for a cycle); violations fault the run as a structured audit fault (0 = off)"),
	}
}

// machine is the device the flags name: the design at -sms SMs, or
// -config-file with -sms and the design's modifiers applied on top.
func (f *cfgFlags) machine() (config.GPU, error) {
	if *f.cfgFile == "" {
		return config.Design(*f.design, cmp.Or(*f.sms, 4))
	}
	r, err := os.Open(*f.cfgFile)
	if err != nil {
		return config.GPU{}, err
	}
	defer r.Close()
	cfg, err := config.FromJSON(r)
	if err != nil {
		return cfg, err
	}
	if *f.sms != 0 {
		cfg = cfg.WithSMs(*f.sms)
	}
	return cfg.WithModifiers(*f.design)
}

// config assembles the configuration from the parsed flags: the machine,
// then how it is run.
func (f *cfgFlags) config() (config.GPU, error) {
	cfg, err := f.machine()
	cfg.NoFastForward, cfg.AuditEvery = *f.noFF, *f.auditEv
	return cfg, err
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
		appName  = fs.String("app", "pb-mriq", "application name (see -list)")
		list     = fs.Bool("list", false, "list applications and exit")
		trc      = fs.Bool("trace", false, "trace register-file reads/cycle on SM 0 and print a sparkline")
		timeline = fs.Bool("timeline", false, "print per-sub-core issue timelines for SM 0 (imbalance view)")
		chrome   = fs.String("chrome-trace", "", "write SM 0's event stream as Chrome trace-event JSON to this file")
		jsonOut  = fs.Bool("json", false, "print the run record (summary and full statistics, the shape of a sweep -checkpoint line) as JSON instead of the text report; everything else the flags print goes to stderr")
		sample   = fs.Int("sample", 0, "counter sampling period in cycles (0 = per flag defaults)")
		timeout  = fs.Duration("timeout", 0, "wall-clock budget for the run (0 = unlimited)")
		maxCyc   = fs.Int64("max-cycles", 0, "per-kernel simulated-cycle cap (0 = simulator default)")
		metAddr  = fs.String("metrics-addr", "", "serve live telemetry on this address (e.g. 127.0.0.1:9090; empty = off)")
		snapDir  = fs.String("snapshot-dir", "", "persist mid-kernel device snapshots to this directory; a run whose frame is already there resumes from it, with byte-identical results")
		snapEvr  = fs.Int64("snapshot-interval", 0, "period between periodic snapshots, in cycles of work: one is every sub-core of the device awake for a cycle, so sleeping sub-cores and slept cycles do not count (0 = only the final frame on SIGTERM/Ctrl-C; refused without -snapshot-dir)")
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

	app, err := repro.AppByName(*appName)
	if err != nil {
		return err
	}
	cfg, err := cf.config()
	if err != nil {
		return err
	}

	// The sampled counter time-series (internal/trace) drives -trace,
	// -timeline, and the counter tracks of -chrome-trace. -trace needs
	// per-cycle resolution; the timeline and Perfetto views default to
	// the historical 32-cycle bucket. Only -chrome-trace needs the event
	// ring: the sparklines run on the sampler alone.
	needTracer := *trc || *timeline || *chrome != ""
	topt := trace.OptionsFor(&cfg, 0)
	if topt.SamplePeriod = *sample; topt.SamplePeriod <= 0 {
		topt.SamplePeriod = 32
		if *trc {
			topt.SamplePeriod = 1
		}
	}
	if *chrome != "" {
		topt.RingCap = trace.DefaultRingCap
	}

	// The run executes under the fault-tolerant harness: -timeout kills a
	// wall-clock overrun, -max-cycles caps simulated cycles, and a
	// watchdog kills a livelocked model; a simulator panic is reported as
	// a structured fault instead of a crash (docs/ROBUSTNESS.md).
	ctx, cancelRun := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancelRun()
	hopt := harness.Options{
		Timeout:          *timeout,
		MaxCycles:        *maxCyc,
		WatchdogInterval: time.Second,
		SnapshotDir:      *snapDir,
		SnapshotInterval: *snapEvr,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(stderr, format+"\n", args...)
		},
	}
	var tr *trace.Tracer
	if needTracer {
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
	r, fault := harness.RunOne(ctx, cfg, app, hopt)
	if fault != nil {
		return fault
	}

	// Under -json stdout is the record and nothing else: the notices and
	// sparklines the other flags print move to stderr.
	rec := harness.NewRecord(app.Name, cfg.Name, cfg.MachineID(), r)
	side := stdout
	if *jsonOut {
		side = stderr
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rec); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(stdout, "app:            %s\nconfig:         %s\n", rec.App, rec.Config)
		rec.WriteText(stdout)
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
		fmt.Fprintln(side, plot.Series(appNameShort(*appName), vals, 100))
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
