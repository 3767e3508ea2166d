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
//	subcoresim -app pb-mriq -json > run.json         # full stats for scripting
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
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"text/tabwriter"
	"time"

	"repro"
	"repro/internal/config"
	"repro/internal/exp"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/plot"
	"repro/internal/stats"
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
	cf := registerCfgFlags(flag.CommandLine)
	var (
		appName  = flag.String("app", "pb-mriq", "application name (see -list)")
		list     = flag.Bool("list", false, "list applications and exit")
		trc      = flag.Bool("trace", false, "trace register-file reads/cycle on SM 0 and print a sparkline")
		timeline = flag.Bool("timeline", false, "print per-sub-core issue timelines for SM 0 (imbalance view)")
		chrome   = flag.String("chrome-trace", "", "write SM 0's event stream as Chrome trace-event JSON to this file")
		jsonOut  = flag.Bool("json", false, "dump the full run statistics as JSON instead of the text report")
		sample   = flag.Int("sample", 0, "counter sampling period in cycles (0 = per flag defaults)")
		timeout  = flag.Duration("timeout", 0, "wall-clock budget for the run (0 = unlimited)")
		maxCyc   = flag.Int64("max-cycles", 0, "per-kernel simulated-cycle cap (0 = simulator default)")
		metAddr  = flag.String("metrics-addr", "", "serve live telemetry on this address (e.g. 127.0.0.1:9090; empty = off)")
		snapDir  = flag.String("snapshot-dir", "", "persist mid-kernel device snapshots to this directory; a run whose frame is already there resumes from it, with byte-identical results")
		snapEvr  = flag.Int64("snapshot-interval", 0, "period between periodic snapshots, in cycles of work: one is every sub-core of the device awake for a cycle, so sleeping sub-cores and slept cycles do not count (0 = only the final frame on SIGTERM/Ctrl-C; needs -snapshot-dir)")
	)
	flag.Parse()

	if *list {
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "name\tsuite\tsensitive\tkernels\tinstructions")
		apps, err := repro.Workloads()
		if err != nil {
			fatal(err)
		}
		for _, a := range apps {
			fmt.Fprintf(w, "%s\t%s\t%v\t%d\t%d\n", a.Name, a.Suite, a.Sensitive, len(a.Kernels), a.Instructions())
		}
		w.Flush()
		return
	}

	app, err := repro.AppByName(*appName)
	if err != nil {
		fatal(err)
	}

	cfg, err := cf.config()
	if err != nil {
		fatal(err)
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
			fmt.Fprintf(os.Stderr, format+"\n", args...)
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
			fatal(err)
		}
		defer srv.Close()
		hopt.Metrics = reg
		fmt.Fprintf(os.Stderr, "subcoresim: telemetry at http://%s/metrics\n", srv.Addr())
	}
	r, fault := harness.RunOne(ctx, cfg, app, hopt)
	if needTracer {
		if err := tr.Close(); err != nil {
			fatal(err)
		}
	}
	if fault != nil {
		fatal(fault)
	}

	if *jsonOut {
		if err := exp.WriteRunJSON(os.Stdout, app.Name, cfg.Name, r); err != nil {
			fatal(err)
		}
	} else {
		report(cfg.Name, app.Name, r)
	}

	if *chrome != "" {
		f, err := os.Create(*chrome)
		if err != nil {
			fatal(err)
		}
		if err := trace.WriteChrome(f, tr); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		if !*jsonOut {
			fmt.Printf("\nwrote Chrome trace to %s (open in ui.perfetto.dev)\n", *chrome)
		}
		if lost := tr.Overwritten(0); lost > 0 {
			fmt.Fprintf(os.Stderr, "subcoresim: %s kept the last %d of %d events of SM 0 (the ring lapped; the counter tracks cover the whole run)\n",
				*chrome, topt.RingCap, int64(topt.RingCap)+lost)
		}
	}

	c := tr.Counters()
	if *trc && c != nil {
		vals := make([]float64, c.Samples())
		for i, v := range c.RFReads {
			// Each granted read is warp-wide: scale to 4-byte register
			// reads per cycle (Fig 14's unit) and normalize by the period.
			vals[i] = float64(v) * float64(cfg.WarpSize) / float64(c.Period)
		}
		fmt.Println("\nSM0 register reads per cycle (Fig 14 style):")
		fmt.Println(plot.Series(appNameShort(*appName), vals, 100))
	}
	if *timeline && c != nil {
		// Aggregate samples into display buckets of >= 32 cycles so the
		// sparkline stays comparable across sampling periods.
		bucket := 1
		if c.Period < 32 {
			bucket = (32 + c.Period - 1) / c.Period
		}
		fmt.Printf("\nSM0 per-sub-core instructions issued (buckets of %d cycles):\n", bucket*c.Period)
		for sc, series := range c.IssueBySub {
			vals := make([]float64, 0, len(series)/bucket+1)
			for i := 0; i < len(series); i += bucket {
				var s float64
				for j := i; j < i+bucket && j < len(series); j++ {
					s += float64(series[j])
				}
				vals = append(vals, s)
			}
			fmt.Println(plot.Series(fmt.Sprintf("sub-core %d", sc), vals, 100))
		}
	}
}

func appNameShort(s string) string {
	if len(s) > 20 {
		return s[:20]
	}
	return s
}

func report(cfgName, appName string, r *repro.Result) {
	fmt.Printf("app:            %s\n", appName)
	fmt.Printf("config:         %s\n", cfgName)
	fmt.Printf("cycles:         %d\n", r.Cycles)
	fmt.Printf("instructions:   %d\n", r.Instructions)
	fmt.Printf("IPC:            %.3f\n", r.IPC())
	fmt.Printf("issue CoV:      %.3f (per-sub-core imbalance, Fig 17 metric)\n", r.IssueCoV())
	fmt.Printf("bank conflicts: %d (%.3f per read)\n", r.TotalBankConflicts(),
		safeDiv(r.TotalBankConflicts(), r.TotalRegReads()))
	fmt.Println("stalls (sub-core cycles):")
	for reason := stats.StallReason(1); reason < stats.NumStallReasons; reason++ {
		fmt.Printf("  %-12s %d\n", reason, r.TotalStalls(reason))
	}
	var hits, misses int64
	for i := range r.SMs {
		hits += r.SMs[i].L1Hits
		misses += r.SMs[i].L1Misses
	}
	if hits+misses > 0 {
		fmt.Printf("L1 hit rate:    %.3f\n", float64(hits)/float64(hits+misses))
	}
	st := r.CPIStack()
	shares := st.Shares()
	fmt.Println("CPI stack (top-down, every sub-core cycle attributed once):")
	for c := stats.CPIComponent(0); c < stats.NumCPIComponents; c++ {
		fmt.Printf("  %-14s %12d  %5.1f%%\n", c, st[c], shares[c]*100)
	}
}

func safeDiv(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "subcoresim:", err)
	os.Exit(1)
}
