// Package measure runs a workload's passes, times them, and checks every
// simulated result: the benchmark reports host speed and simulated
// statistics together, and any drift in the statistics is a failure, not
// a speed-up.
package measure

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/benchmark/internal/span"
	"repro/benchmark/internal/workload"
	"repro/internal/bench"
	"repro/internal/config"
	"repro/internal/exp"
	"repro/internal/gpu"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/stats"
)

// Guard-ring settings of a Guarded pass.
const (
	GuardInterval = 4096 // snapshot and audit period, simulated cycles
	guardWatchdog = time.Second
)

// CellRun is one executed cell.
type CellRun struct {
	Name string
	// Wall is the host time of gpu.New + RunKernels (through the harness:
	// Result.Wall), in seconds.
	Wall float64
	// Scaled is Wall in seconds of the quiet machine: scaled by the
	// reference kernel's time right before and after the cell (calib.go).
	// Cells outside timed passes are not bracketed and keep Scaled == Wall.
	Scaled float64
	// RunNS is the RunKernels part of Wall in nanoseconds; 0 through the
	// harness.
	RunNS int64
	// Run is nil when the cell faulted.
	Run *stats.Run
	// FF is the device's fast-forwarded cycle count; -1 through the
	// harness, which does not expose it.
	FF int64
	// Allocs and AllocBytes are heap allocations of the cell, recorded on
	// traced direct passes only.
	Allocs, AllocBytes uint64
}

// Pass is one serial sweep of the workload's cell list.
type Pass struct {
	// Wall is the host time of the pass in seconds: the sum of the cells'
	// walls on a direct pass, the sum of the harness.Run calls' walls (plus
	// the bench baseline write, when guarded) on a harness pass.
	Wall  float64
	Cells []CellRun
	// Self is the scaled time a harness pass spent outside its cells; 0 on
	// a direct pass.
	Self float64
	// Frames, CheckpointKB and BenchWriteUS describe a guarded pass.
	Frames       int64
	CheckpointKB float64
	BenchWriteUS float64
}

// Instructions sums the pass's simulated warp instructions.
func (p *Pass) Instructions() (n int64) {
	for _, c := range p.Cells {
		if c.Run != nil {
			n += c.Run.Instructions
		}
	}
	return n
}

// CellWall sums the cells' walls: the part of Wall spent simulating.
func (p *Pass) CellWall() (s float64) {
	for _, c := range p.Cells {
		s += c.Wall
	}
	return s
}

// CellScaled is CellWall in seconds of the quiet machine.
func (p *Pass) CellScaled() (s float64) {
	for _, c := range p.Cells {
		s += c.Scaled
	}
	return s
}

// Scaled is Wall in seconds of the quiet machine.
func (p *Pass) Scaled() float64 { return p.CellScaled() + p.Self }

// Oracle checks every cell any pass runs. A cell fails when it faults,
// when its CPI stack does not sum to its cycles, when its instruction
// count differs from the workload's own count (which also makes the
// counts equal across the configurations of one app), or when its
// serialised statistics differ from the first time the cell ran in this
// process — on an earlier pass, through the harness instead of directly,
// with the guard ring armed, with fast-forward off, or resumed from a
// snapshot.
type Oracle struct {
	want  map[string]int64
	first map[string][]byte

	Attempted, Failed int
	// Failures holds one line per failed check, capped.
	Failures []string
}

// NewOracle takes the expected instruction counts from the workload's
// apps (App.Instructions walks every warp's program, which also forces
// the kernels' lazily built programs into existence).
func NewOracle(w *workload.Workload) *Oracle {
	o := &Oracle{want: map[string]int64{}, first: map[string][]byte{}}
	for i := range w.Apps {
		o.want[w.Apps[i].Name] = w.Apps[i].Instructions()
	}
	return o
}

func (o *Oracle) fail(format string, args ...any) {
	o.Failed++
	if len(o.Failures) < 20 {
		o.Failures = append(o.Failures, fmt.Sprintf(format, args...))
	}
}

// Check records one attempted cell; js is the run's JSON (nil lets Check
// serialise it).
func (o *Oracle) Check(app, cell string, run *stats.Run, js []byte, err error) {
	o.Attempted++
	switch {
	case err != nil:
		o.fail("%s: %v", cell, err)
		return
	case run == nil:
		o.fail("%s: no result", cell)
		return
	}
	if err := run.CheckCPI(); err != nil {
		o.fail("%s: %v", cell, err)
		return
	}
	if want := o.want[app]; run.Instructions != want {
		o.fail("%s: %d instructions simulated, workload has %d", cell, run.Instructions, want)
		return
	}
	if js == nil {
		if js, err = json.Marshal(run); err != nil {
			o.fail("%s: %v", cell, err)
			return
		}
	}
	if prev, ok := o.first[cell]; !ok {
		o.first[cell] = js
	} else if string(prev) != string(js) {
		o.fail("%s: statistics differ from the cell's first run", cell)
	}
}

// CheckFidelity fails the run when the reproduction's error against
// Fig 10 has grown past its ceiling (see RBAGainErrCeilingPP). Workloads
// without the Fig 10 cell set report 0 and always pass.
func (o *Oracle) CheckFidelity(rbaGainErrPP float64) {
	if rbaGainErrPP > RBAGainErrCeilingPP {
		o.Attempted++
		o.fail("rba_gain_err_pp %.3f is above the ceiling of %.2f pp", rbaGainErrPP, RBAGainErrCeilingPP)
	}
}

// Digest is the SHA-256 over the cells' stats.Run JSON in cell-name
// order: one string to compare a parent commit against a change.
func (o *Oracle) Digest() string {
	names := make([]string, 0, len(o.first))
	for n := range o.first {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		h.Write([]byte(n))
		h.Write(o.first[n])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Runner executes passes of one workload.
type Runner struct {
	W *workload.Workload
	// Seed and Scale are what W was built from.
	Seed  int64
	Scale float64
	// Dir holds the guard ring's files (checkpoints, snapshot frames,
	// bench baselines); each guarded pass gets a fresh subdirectory.
	Dir string
	// Rec records spans; nil on untraced runs.
	Rec    *span.Recorder
	Oracle *Oracle
	// Small runs the tenth-scale build of the same workload and seed: the
	// warm-up cell and the traced run's single-cell probes.
	Small *Runner

	cells int // span cell ids handed out
}

// Checked totals the cells this runner and its small twin put through
// their oracles.
func (r *Runner) Checked() (attempted, failed int, failures []string) {
	for _, o := range []*Oracle{r.Oracle, r.Small.Oracle} {
		attempted += o.Attempted
		failed += o.Failed
		failures = append(failures, o.Failures...)
	}
	return attempted, failed, failures
}

// device runs one cell on a fresh device and returns the host time of
// gpu.New (with the caller's wiring) and of RunKernels. prepare, when
// non-nil, wires the new device (hooks, tracer, registry) before it runs.
// A simulator panic comes back as a *harness.SimFault error.
func (r *Runner) device(c workload.Cell, parent span.ID, id int, prepare func(*gpu.GPU)) (g *gpu.GPU, newDur, runDur time.Duration, err error) {
	err = harness.Guard(c.Name(), func() error {
		start := time.Now()
		s := r.Rec.Begin("gpu.new", parent, id)
		var err error
		g, err = gpu.New(c.Cfg)
		r.Rec.End(s)
		if err != nil {
			return err
		}
		if prepare != nil {
			prepare(g)
		}
		s = r.Rec.Begin("gpu.run_kernels", parent, id)
		mid := time.Now()
		err = g.RunKernels(c.App.Kernels, 0)
		newDur, runDur = mid.Sub(start), time.Since(mid)
		r.Rec.End(s)
		return err
	})
	return g, newDur, runDur, err
}

// Cell runs one cell directly and checks it.
func (r *Runner) Cell(c workload.Cell, parent span.ID, prepare func(*gpu.GPU)) CellRun {
	r.cells++
	id := r.cells
	cs := r.Rec.Begin("cell", parent, id)
	defer r.Rec.End(cs)
	out := CellRun{Name: c.Name(), FF: -1}
	var m0, m1 runtime.MemStats
	if r.Rec != nil {
		runtime.ReadMemStats(&m0)
	}
	g, newDur, runDur, err := r.device(c, cs, id, prepare)
	out.Wall, out.RunNS = (newDur + runDur).Seconds(), runDur.Nanoseconds()
	out.Scaled = out.Wall
	if r.Rec != nil {
		runtime.ReadMemStats(&m1)
		out.Allocs, out.AllocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	}
	if err != nil {
		r.Oracle.Check(c.App.Name, out.Name, nil, nil, err)
		return out
	}
	out.Run, out.FF = g.Run(), g.FastForwardedCycles()
	s := r.Rec.Begin("stats.digest", cs, id)
	js, err := json.Marshal(out.Run)
	_ = sha256.Sum256(js)
	r.Rec.End(s)
	r.Oracle.Check(c.App.Name, out.Name, out.Run, js, err)
	return out
}

// Direct runs one pass with every cell on a fresh gpu.New. A traced pass
// first rebuilds the workload from its seed under a workloads.build
// span, so kernel construction is priced where a fresh process pays it.
func (r *Runner) Direct() (Pass, error) {
	ps := r.Rec.Begin("pass", span.None, 0)
	defer r.Rec.End(ps)
	w := r.W
	if r.Rec != nil {
		s := r.Rec.Begin("workloads.build", ps, 0)
		var err error
		w, err = workload.Build(r.W.Name, r.Seed, r.Scale)
		if err == nil {
			NewOracle(w) // materialises every warp program, as set-up does
		}
		r.Rec.End(s)
		if err != nil {
			return Pass{}, err
		}
	}
	var p Pass
	before := calibrateFor(time.Second)
	for _, c := range w.Cells() {
		cell := r.Cell(c, ps, nil)
		after := calibrateFor(time.Duration(cell.Wall * float64(time.Second)))
		cell.Scaled = scaled(cell.Wall, before, after)
		p.Cells = append(p.Cells, cell)
		before = after
	}
	p.Wall = p.CellWall()
	return p, nil
}

// Harness runs one pass through harness.Run on a single worker, with the
// guard ring armed when guarded. The error covers the harness itself;
// faulted cells are counted by the oracle.
//
// The pass is one harness.Run call per cell, not one call over the whole
// matrix: the reference kernel has to run between cells (calib.go), and
// the harness offers no place for that inside a call — the tree's
// determinism rule allows no clock read in code harness.Run can reach.
// Per cell the harness does the same work either way (adapt, run, retry
// policy, checkpoint append, frames); what repeats per call — opening a
// checkpoint, starting the worker and the watchdog — is counted into Self.
func (r *Runner) Harness(guarded bool) (Pass, error) {
	apps := r.W.OrderedApps()
	cfgs := r.W.Cfgs
	opt := harness.Options{Workers: 1, Adapt: exp.DeviceFor}
	name := "harness.run"
	var dir string
	var reg *metrics.Registry
	if guarded {
		name = "harness.run_guarded"
		var err error
		if dir, err = os.MkdirTemp(r.Dir, "guarded-"); err != nil {
			return Pass{}, err
		}
		defer os.RemoveAll(dir)
		reg = metrics.New()
		opt.SnapshotDir = filepath.Join(dir, "snapshots")
		opt.SnapshotInterval = GuardInterval
		opt.Metrics = reg
		opt.WatchdogInterval = guardWatchdog
		cfgs = make([]config.GPU, len(r.W.Cfgs))
		for i, c := range r.W.Cfgs {
			cfgs[i] = c.WithAudit(GuardInterval)
		}
	}
	var p Pass
	// The calls' results as the matrix one call would have returned, for the
	// bench baseline.
	sweep := harness.Result{Runs: make([][]*stats.Run, len(apps)), Wall: make([][]float64, len(apps))}
	var wall time.Duration
	before := calibrateFor(time.Second)
	for i := range apps {
		for j, sched := range r.W.Scheds {
			if guarded {
				opt.CheckpointPath = filepath.Join(dir, fmt.Sprintf("checkpoint-%02d-%d.jsonl", i, j))
			}
			hs := r.Rec.Begin(name, span.None, 0)
			start := time.Now()
			res, err := harness.Run(context.Background(), cfgs[j:j+1], r.W.Scheds[j:j+1], apps[i:i+1], opt)
			took := time.Since(start)
			r.Rec.End(hs)
			if err != nil {
				return Pass{}, err
			}
			after := calibrateFor(took)
			wall += took
			sweep.Runs[i], sweep.Wall[i] = append(sweep.Runs[i], res.Runs[0][0]), append(sweep.Wall[i], res.Wall[0][0])
			c := CellRun{Name: apps[i].Name + "/" + sched, Wall: res.Wall[0][0], Scaled: scaled(res.Wall[0][0], before, after), Run: res.Runs[0][0], FF: -1}
			var fault error
			if f, ok := res.Errs[harness.Cell{App: 0, Cfg: 0}]; ok {
				fault = f
			}
			// The harness hides the cell's interval; lay it at the start of the
			// call's span from its reported wall. What it leaves uncovered is
			// the harness's self time.
			r.cells++
			r.Rec.Add("cell", hs, r.cells, start, time.Duration(c.Wall*float64(time.Second)))
			r.Oracle.Check(apps[i].Name, c.Name, c.Run, nil, fault)
			p.Cells = append(p.Cells, c)
			p.Self += scaled(took.Seconds()-c.Wall, before, after)
			if fi, err := os.Stat(opt.CheckpointPath); guarded && err == nil {
				p.CheckpointKB += float64(fi.Size()) / 1024
			}
			before = after
		}
	}
	if guarded {
		start := time.Now()
		err := bench.FromResult(&sweep, apps, r.W.Scheds, "").WriteFile(filepath.Join(dir, "bench.json"))
		took := time.Since(start)
		r.Rec.Add("bench.write", span.None, 0, start, took)
		if err != nil {
			return Pass{}, err
		}
		wall += took
		p.Self += scaled(took.Seconds(), before, before)
		p.BenchWriteUS = float64(took.Nanoseconds()) / 1e3
		p.Frames = reg.Counter("sweep_snapshot_writes_total", "").Value()
	}
	p.Wall = wall.Seconds()
	return p, nil
}

// Native runs one pass the way the workload's mode says.
func (r *Runner) Native() (Pass, error) {
	if r.W.Mode == workload.Direct {
		return r.Direct()
	}
	p, err := r.Harness(r.W.Mode == workload.Guarded)
	return p, err
}

// PeakRSSMB reads the process's resident-set high-water mark.
func PeakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		var kb float64
		if n, _ := fmt.Sscanf(line, "VmHWM: %f kB", &kb); n == 1 {
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("measure: no VmHWM in /proc/self/status")
}
