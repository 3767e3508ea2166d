// Package harness is the fault-tolerant execution layer for simulation
// sweeps: the paper's evaluation is a 112-application × multi-config
// matrix, and at that scale one simulator invariant panic, livelocked
// cell, or runaway kernel must not cost the whole campaign.
//
// Four pillars:
//
//  1. Panic isolation — every (application, configuration) cell runs
//     under recover(); a simulator panic becomes a structured *SimFault
//     carrying the cell identity, fault class, last heartbeat cycle and
//     stack, plus an optional flight-recorder dump (internal/trace) in
//     the diagnostics directory. The sweep reports faulted cells and
//     keeps going.
//  2. Cancellation and watchdog — a context plus per-cell wall-clock
//     timeout and a forward-progress watchdog reading the gpu.Monitor
//     heartbeat, so hung or livelocked cells die in wall-clock time
//     instead of burning out the simulated-cycle cap.
//  3. Checkpoint/resume — completed cells stream to an append-only JSONL
//     checkpoint; a resumed sweep skips them and re-runs only the
//     faulted/killed/missing cells (checkpoint.go).
//  4. Snapshot/resume — interrupted cells themselves resume mid-kernel:
//     periodic and cancellation-time device snapshots (snapshot.go,
//     internal/snapshot, docs/ROBUSTNESS.md) let a restarted sweep
//     continue a half-finished cell with byte-identical final results.
//     The runtime invariant auditor (config.AuditEvery) surfaces state
//     corruption as a structured FaultAudit instead of silent bad data.
//
// Run is the only way in: a single cell is a 1×1 sweep, so every Options
// field means the same for one cell as for many.
package harness

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Options configures a sweep execution.
type Options struct {
	// Workers is the worker-pool size (0 = GOMAXPROCS, capped at the
	// cell count).
	Workers int
	// Timeout is the per-cell wall-clock budget (0 = unlimited).
	Timeout time.Duration
	// MaxCycles caps each kernel's simulated cycles
	// (0 = gpu.DefaultMaxCycles).
	MaxCycles int64
	// WatchdogInterval is the forward-progress sampling period: a cell
	// whose heartbeat does not advance for two consecutive intervals is
	// killed (0 disables the watchdog).
	WatchdogInterval time.Duration
	// CheckpointPath streams completed cells to an append-only JSONL
	// file and, when the file already exists, resumes from it ("" =
	// no checkpointing).
	CheckpointPath string
	// DiagDir arms a per-cell flight recorder (internal/trace, SM 0) and
	// writes each fault's dump there ("" = no diagnostics; faulted cells
	// then carry stack and heartbeat only).
	DiagDir string
	// SnapshotDir arms mid-kernel state snapshots (snapshot.go): each
	// cell persists its full device state to <dir>/<app>__<config>.snap
	// every SnapshotInterval cycles of work, plus a final frame when the
	// cell is canceled (SIGTERM, watchdog, timeout). A cell that finds its
	// frame there resumes from it mid-kernel with byte-identical final
	// statistics; a frame that fails to restore (version, config, or
	// workload drift) is discarded and the cell restarts fresh
	// ("" = no snapshots).
	SnapshotDir string
	// SnapshotInterval is the period between periodic snapshots, counted in
	// cycles of work (gpu.WorkCycles: one is every sub-core of the device
	// awake for a cycle, so a stretch most of the device sleeps through,
	// which costs the host almost nothing, counts for almost nothing) and
	// rounded up to the device heartbeat. The cell's first heartbeat always
	// writes a frame; 0 = only the final cancellation frame is written.
	SnapshotInterval int64
	// Adapt, when non-nil, derives the cell's device configuration from
	// the sweep configuration and the application (exp.DeviceFor's
	// per-suite memory scaling).
	Adapt func(cfg config.GPU, app workloads.App) config.GPU
	// Tracer attaches an externally owned tracer to the cell's device (the
	// caller owns Close and export). A tracer records one device, so Run
	// refuses it for a sweep of more than one cell.
	Tracer *trace.Tracer
	// Logf, when non-nil, receives one line per fault and per resume
	// summary (a sweep is otherwise silent).
	Logf func(format string, args ...any)
	// Metrics, when non-nil, receives live sweep telemetry: per-cell
	// heartbeat gauges (a hung cell shows as a stalled
	// sweep_cell_heartbeat_cycle), completion/fault/checkpoint/snapshot
	// counters, aggregated CPI-stack cycles, and the devices' cycle and
	// instruction totals (nil = no telemetry).
	Metrics *metrics.Registry

	// sm carries the registered handles; built once per Run from
	// Metrics, every handle nil when telemetry is off.
	sm *sweepMetrics
}

// watchdogStallIntervals is how many consecutive unchanged heartbeat
// samples the watchdog tolerates before killing a cell: two, so a cell
// is never killed on the sampling phase alone — it must hold one full
// interval with zero forward progress.
const watchdogStallIntervals = 2

func (o *Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// snapshotDir makes SnapshotDir, and refuses a SnapshotInterval without one
// rather than ignore it.
func (o *Options) snapshotDir() error {
	if o.SnapshotDir == "" {
		if o.SnapshotInterval != 0 {
			return errors.New("harness: a snapshot interval (-snapshot-interval) needs a snapshot directory (-snapshot-dir) to write frames to")
		}
		return nil
	}
	if err := os.MkdirAll(o.SnapshotDir, 0o755); err != nil {
		return fmt.Errorf("harness: snapshot dir: %w", err)
	}
	return nil
}

// Result is the outcome of a sweep: the per-cell statistics, the faults,
// and the bookkeeping a caller needs to trust the matrix.
type Result struct {
	// Runs is the cell matrix, indexed [app][config]. A cell is nil iff
	// Errs records its fault — callers must consult Errs (or Complete)
	// before dereferencing.
	Runs [][]*stats.Run
	// Errs maps each faulted cell to its *SimFault.
	Errs CellErrors
	// Resumed counts cells restored from the checkpoint; Executed counts
	// cells actually simulated this run.
	Resumed, Executed int
	// Wall is the per-cell wall-clock simulation time in seconds,
	// indexed like Runs. Zero for resumed and faulted cells. Wall time
	// is the one nondeterministic cell datum: it reaches no result table,
	// checkpoint or metric — `go run ./benchmark` reads it to time cells.
	Wall [][]float64
}

// Complete reports whether every cell has a run.
func (r *Result) Complete() bool { return len(r.Errs) == 0 }

// Run executes the (configs × apps) sweep under the harness. names
// labels the configurations for checkpoints, fault records and
// diagnostics files; nil falls back to each config's Name. The returned
// error covers harness-level failures (bad arguments, unreadable
// checkpoint, canceled context) — simulation failures never abort the
// sweep and are reported per cell in Result.Errs.
func Run(ctx context.Context, cfgs []config.GPU, names []string, apps []workloads.App, opt Options) (*Result, error) {
	if len(cfgs) == 0 || len(apps) == 0 {
		return nil, fmt.Errorf("harness: empty sweep (%d configs, %d apps)", len(cfgs), len(apps))
	}
	if names == nil {
		names = make([]string, len(cfgs))
		for i := range cfgs {
			names[i] = cfgs[i].Name
		}
	}
	if len(names) != len(cfgs) {
		return nil, fmt.Errorf("harness: %d config names for %d configs", len(names), len(cfgs))
	}
	// Outside this process a cell is its label — checkpoint key, snapshot
	// frame, fault dump: two under one label would share all three.
	labelled := map[string]Cell{}
	for i := range apps {
		for j := range cfgs {
			l := cellLabel(apps[i].Name, names[j])
			if c, dup := labelled[l]; dup {
				return nil, fmt.Errorf("harness: cells (app %d %q, config %d %q) and (app %d %q, config %d %q) share the label %s; every cell needs its own",
					c.App, apps[c.App].Name, c.Cfg, names[c.Cfg], i, apps[i].Name, j, names[j], l)
			}
			labelled[l] = Cell{App: i, Cfg: j}
		}
	}
	if opt.Tracer != nil && len(apps)*len(cfgs) > 1 {
		return nil, fmt.Errorf("harness: a tracer records one device; a sweep of %d cells cannot share one", len(apps)*len(cfgs))
	}
	if err := opt.snapshotDir(); err != nil {
		return nil, err
	}
	res := &Result{
		Runs: make([][]*stats.Run, len(apps)),
		Wall: make([][]float64, len(apps)),
		Errs: CellErrors{},
	}
	for i := range res.Runs {
		res.Runs[i] = make([]*stats.Run, len(cfgs))
		res.Wall[i] = make([]float64, len(cfgs))
	}
	opt.sm = newSweepMetrics(opt.Metrics)

	adapt := func(c Cell) config.GPU {
		if opt.Adapt != nil {
			return opt.Adapt(cfgs[c.Cfg], apps[c.App])
		}
		return cfgs[c.Cfg]
	}

	// Checkpoint: restore completed cells, then append new ones. A record
	// is restored only into a cell that simulates its machine.
	var ckpt *checkpointWriter
	if opt.CheckpointPath != "" {
		done, err := loadCheckpoint(opt.CheckpointPath)
		if err != nil {
			return nil, err
		}
		for i, app := range apps {
			for j := range cfgs {
				if run, ok := done[ckptKey(app.Name, names[j], adapt(Cell{App: i, Cfg: j}).MachineID())]; ok {
					res.Runs[i][j] = run
					res.Resumed++
				}
			}
		}
		if res.Resumed > 0 {
			opt.logf("harness: resumed %d/%d cells from %s", res.Resumed, len(apps)*len(cfgs), opt.CheckpointPath)
		}
		ckpt, err = openCheckpoint(opt.CheckpointPath)
		if err != nil {
			return nil, err
		}
		defer ckpt.Close()
	}
	if opt.DiagDir != "" {
		if err := os.MkdirAll(opt.DiagDir, 0o755); err != nil {
			return nil, fmt.Errorf("harness: diagnostics dir: %w", err)
		}
	}

	var cells []Cell
	for i := range apps {
		for j := range cfgs {
			if res.Runs[i][j] == nil {
				cells = append(cells, Cell{App: i, Cfg: j})
			}
		}
	}
	opt.sm.cellsTotal.Set(float64(len(apps) * len(cfgs)))
	opt.sm.cellsResumed.Add(int64(res.Resumed))
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	if workers < 1 {
		workers = 1
	}

	jobs := make(chan Cell)
	var mu sync.Mutex // guards res.Errs/Executed and ckptErr
	var ckptErr error
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range jobs {
				cfg := adapt(c)
				run, wall, fault := runCell(ctx, cfg, apps[c.App], names[c.Cfg], opt)
				mu.Lock()
				res.Executed++
				if fault != nil {
					fault.App, fault.Config = apps[c.App].Name, names[c.Cfg]
					res.Errs[c] = fault
					opt.logf("harness: FAULT %v", fault)
					mu.Unlock()
					continue
				}
				res.Runs[c.App][c.Cfg] = run
				res.Wall[c.App][c.Cfg] = wall
				mu.Unlock()
				if ckpt != nil {
					if err := ckpt.Write(NewRecord(apps[c.App].Name, names[c.Cfg], cfg.MachineID(), run)); err != nil {
						mu.Lock()
						if ckptErr == nil {
							ckptErr = err
						}
						mu.Unlock()
					} else {
						opt.sm.ckptWrites.Inc()
					}
				}
			}
		}()
	}
dispatch:
	for _, c := range cells {
		select {
		case jobs <- c:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return res, fmt.Errorf("harness: sweep interrupted: %w", err)
	}
	if ckptErr != nil {
		return res, fmt.Errorf("harness: checkpoint write: %w", ckptErr)
	}
	return res, nil
}

// runCell runs one cell, accounts its outcome (completion or fault) to
// the sweep metrics and returns the wall-clock seconds spent simulating.
func runCell(ctx context.Context, cfg config.GPU, app workloads.App, cfgName string, opt Options) (*stats.Run, float64, *SimFault) {
	// Wall-clock telemetry: per-cell runtime feeds Result.Wall, never
	// simulated state or result tables.
	start := time.Now()
	run, fault := superviseCell(ctx, cfg, app, cfgName, opt)
	wall := time.Since(start).Seconds()
	if fault != nil {
		opt.sm.faults[fault.Kind].Inc()
	} else {
		opt.sm.cellDone(run)
	}
	return run, wall, fault
}

// superviseCell simulates one cell under the supervisor, panic isolation
// and the snapshot hook, continuing from the cell's snapshot frame when
// one exists.
func superviseCell(ctx context.Context, cfg config.GPU, app workloads.App, cfgName string, opt Options) (run *stats.Run, fault *SimFault) {
	mon := &gpu.Monitor{}
	stop := supervise(ctx, mon, opt)
	defer stop()
	// Live progress: the heartbeat gauge reads this cell's monitor at
	// scrape time, and goes away with the cell.
	defer opt.sm.watchCell(app.Name, cfgName, mon)()

	// Flight recorder: an SM-0 ring (no sampler) whose tail is dumped on fault.
	tr := opt.Tracer
	if tr == nil && opt.DiagDir != "" {
		ring := trace.OptionsFor(&cfg, 0)
		ring.RingCap = trace.DefaultRingCap
		tr = trace.New(ring)
	}

	// Panic isolation: a simulator invariant violation becomes a
	// structured fault with the cell's last heartbeat and the stack.
	defer func() {
		if v := recover(); v != nil {
			fault = &SimFault{
				Kind:       FaultPanic,
				Cycle:      mon.Cycle(),
				PanicValue: v,
				Stack:      debug.Stack(),
			}
			fault.DumpPath = writeDump(opt, app.Name, cfgName, fault, tr)
			run = nil
		}
	}()

	g, err := gpu.New(cfg)
	if err != nil {
		return nil, &SimFault{Kind: FaultError, Err: err}
	}

	// Snapshot resume: a frame left by an interrupted earlier run (final
	// cancellation frame or the last periodic one) continues mid-kernel.
	// A frame that does not restore is discarded — Restore may have
	// half-mutated the device, so the fresh path rebuilds it.
	snap := newCellSnapshotter(opt, app.Name, cfgName, mon)
	defer snap.settle() // no way out of the cell leaves a frame half-written
	resumed := false
	if snap != nil {
		ok, rerr := snap.tryResume(g, app.Kernels)
		if rerr != nil {
			opt.logf("harness: %s on %s: snapshot unusable, restarting fresh: %v", app.Name, cfgName, rerr)
			snap.discard()
			if g, err = gpu.New(cfg); err != nil {
				return nil, &SimFault{Kind: FaultError, Err: err}
			}
		} else if ok {
			resumed = true
			opt.sm.snapResumes.Inc()
			opt.logf("harness: %s on %s: resumed from snapshot at cycle %d", app.Name, cfgName, g.Cycle())
		}
	}

	g.SetMonitor(mon)
	g.SetMetrics(opt.Metrics)
	g.SetTracer(tr)
	if snap != nil {
		g.SetSnapshotHook(snap.hook)
	}
	runErr := error(nil)
	if resumed {
		runErr = g.ContinueKernels(app.Kernels, opt.MaxCycles)
	} else {
		runErr = g.RunKernels(app.Kernels, opt.MaxCycles)
	}
	if runErr != nil {
		f := &SimFault{Cycle: mon.Cycle(), Err: runErr}
		var cle *gpu.CycleLimitError
		var ce *gpu.CancelError
		var ae *gpu.AuditError
		switch {
		case errors.As(runErr, &cle):
			f.Kind = FaultDeadline
			// A frame carries the absolute deadline its launch died on:
			// resumed, even under a raised cap, it re-faults at that cycle.
			snap.discard()
		case errors.As(runErr, &ce):
			f.Kind = kindForReason(ce.Reason)
			f.Cycle = ce.Cycle
		case errors.As(runErr, &ae):
			f.Kind = FaultAudit
			f.Cycle = ae.Cycle
			// The frame may hold the corruption: resumed, it re-faults under
			// the auditor and checkpoints bad statistics without it.
			snap.discard()
		default:
			f.Kind = FaultError
		}
		f.DumpPath = writeDump(opt, app.Name, cfgName, f, tr)
		return nil, f
	}
	snap.discard()
	return g.Run(), nil
}

// Supervisor cancel-reason prefixes, mapped back to fault kinds.
const (
	reasonWatchdog = "watchdog"
	reasonTimeout  = "timeout"
	reasonContext  = "canceled"
)

func kindForReason(reason string) FaultKind {
	switch {
	case strings.HasPrefix(reason, reasonWatchdog):
		return FaultWatchdog
	case strings.HasPrefix(reason, reasonTimeout):
		return FaultTimeout
	default:
		return FaultCanceled
	}
}

// supervise starts the cell's supervisor: context cancellation, the
// wall-clock timeout, and the forward-progress watchdog all converge on
// mon.Cancel, which the simulation loop observes within one heartbeat
// period. The returned stop function must be called when the cell ends.
func supervise(ctx context.Context, mon *gpu.Monitor, opt Options) (stop func()) {
	if ctx.Done() == nil && opt.Timeout <= 0 && opt.WatchdogInterval <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		var timeoutC <-chan time.Time
		if opt.Timeout > 0 {
			tm := time.NewTimer(opt.Timeout)
			defer tm.Stop()
			timeoutC = tm.C
		}
		var watchC <-chan time.Time
		if opt.WatchdogInterval > 0 {
			tk := time.NewTicker(opt.WatchdogInterval)
			defer tk.Stop()
			watchC = tk.C
		}
		last, stalls := mon.Cycle(), 0
		for {
			select {
			case <-done:
				return
			case <-ctx.Done():
				mon.Cancel(reasonContext + ": " + ctx.Err().Error())
				return
			case <-timeoutC:
				mon.Cancel(fmt.Sprintf("%s: cell exceeded %v wall clock at cycle %d",
					reasonTimeout, opt.Timeout, mon.Cycle()))
				return
			case <-watchC:
				cur := mon.Cycle()
				if cur != last {
					last, stalls = cur, 0
					continue
				}
				stalls++
				if stalls >= watchdogStallIntervals {
					mon.Cancel(fmt.Sprintf("%s: no forward progress for %v (heartbeat stuck at cycle %d)",
						reasonWatchdog, time.Duration(stalls)*opt.WatchdogInterval, cur))
					return
				}
			}
		}
	}()
	return func() { close(done) }
}

// Guard runs fn with panic isolation: a panic surfaces as a *SimFault
// error labeled with name instead of crashing the process. Binaries use
// it to contain experiment drivers that do not go through a sweep.
func Guard(name string, fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &SimFault{
				App:        name,
				Kind:       FaultPanic,
				PanicValue: v,
				Stack:      debug.Stack(),
			}
		}
	}()
	return fn()
}

// writeDump writes the fault's diagnostics: a <app>__<config>.fault.json
// with the structured fault record, and — when a flight recorder was
// armed — a Perfetto-loadable <app>__<config>.trace.json holding the
// recorder's tail. Returns the fault file path, "" if diagnostics are
// disabled or unwritable (a dump failure must not mask the fault).
func writeDump(opt Options, app, cfgName string, f *SimFault, tr *trace.Tracer) string {
	if opt.DiagDir == "" {
		return ""
	}
	base := filepath.Join(opt.DiagDir, cellLabel(app, cfgName))
	tracePath := ""
	if tr != nil {
		if tf, err := os.Create(base + ".trace.json"); err == nil {
			werr := trace.WriteChrome(tf, tr)
			cerr := tf.Close()
			if werr != nil || cerr != nil {
				os.Remove(base + ".trace.json")
			} else {
				tracePath = base + ".trace.json"
			}
		}
	}
	path := base + ".fault.json"
	df, err := os.Create(path)
	if err != nil {
		opt.logf("harness: cannot write diagnostics for %s on %s: %v", app, cfgName, err)
		return ""
	}
	defer df.Close()
	rec := struct {
		App        string `json:"app"`
		Config     string `json:"config"`
		Kind       string `json:"kind"`
		Cycle      int64  `json:"cycle"`
		Error      string `json:"error,omitempty"`
		PanicValue string `json:"panic,omitempty"`
		Stack      string `json:"stack,omitempty"`
		Trace      string `json:"trace,omitempty"`
	}{
		App:    app,
		Config: cfgName,
		Kind:   f.Kind.String(),
		Cycle:  f.Cycle,
		Trace:  tracePath,
	}
	if f.Err != nil {
		rec.Error = f.Err.Error()
	}
	if f.PanicValue != nil {
		rec.PanicValue = fmt.Sprint(f.PanicValue)
	}
	if len(f.Stack) > 0 {
		rec.Stack = string(f.Stack)
	}
	enc := json.NewEncoder(df)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rec); err != nil {
		opt.logf("harness: cannot encode diagnostics for %s on %s: %v", app, cfgName, err)
		os.Remove(path)
		return ""
	}
	return path
}

// cellLabel names a cell's files.
func cellLabel(app, cfgName string) string { return sanitize(app) + "__" + sanitize(cfgName) }

// sanitize makes a cell label filesystem-safe.
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case '/', '\\', ':', ' ', '*', '?', '"', '<', '>', '|':
			return '-'
		}
		return r
	}, s)
}
