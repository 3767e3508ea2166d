package measure

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/benchmark/internal/drivers"
	"repro/benchmark/internal/span"
	"repro/benchmark/internal/workload"
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Set-up is repeated until setupBudget of host time has gone into it, at
// least setupMinReps and at most setupMaxReps times, and setup_s is the
// median: single readings of issue_dense's 30 ms set-up scatter by ±5 % on
// the quiet machine and its thirty-odd readings put the median within a
// percent or two, while mem_bound's 200 ms set-up stops at five.
const (
	setupMinReps = 5
	setupMaxReps = 40
	setupBudget  = time.Second
)

// smallScale sizes the second, small build of the workload that the
// warm-up cell and the traced run's single-cell probes use: a tenth of
// the benchmark's size, so they cost a fraction of a second even where a
// full cell takes seconds.
const smallScale = 0.1

// Setup builds the workload from its seed at full and at small scale,
// derives both oracles' expected counts (materialising every warp
// program) and runs the warm-up cell — the small build's first cell — on
// a first gpu.New; all of it repeatedly, from scratch each time. It
// returns a runner over the last build and the seconds each repetition
// took, scaled like a cell's wall (calib.go); the first includes
// untilMain, what the process paid before reaching main.
func Setup(name string, seed int64, scale float64, dir string, rec *span.Recorder, untilMain time.Duration) (*Runner, []float64, error) {
	var r *Runner
	var took []float64
	var spent time.Duration
	before := calibrate()
	for len(took) < setupMinReps || (spent < setupBudget && len(took) < setupMaxReps) {
		start := time.Now()
		s := rec.Begin("setup", span.None, 0)
		var err error
		if r, err = newRunner(name, seed, scale, dir, rec); err != nil {
			return nil, nil, err
		}
		if r.Small, err = newRunner(name, seed, scale*smallScale, dir, rec); err != nil {
			return nil, nil, err
		}
		r.Small.Cell(r.Small.W.First(), s, nil)
		rec.End(s)
		raw := time.Since(start)
		if len(took) == 0 {
			raw += untilMain
		}
		after := calibrateFor(raw)
		took = append(took, scaled(raw.Seconds(), before, after))
		spent += raw
		before = after
	}
	return r, took, nil
}

func newRunner(name string, seed int64, scale float64, dir string, rec *span.Recorder) (*Runner, error) {
	w, err := workload.Build(name, seed, scale)
	if err != nil {
		return nil, err
	}
	return &Runner{W: w, Seed: seed, Scale: scale, Dir: dir, Rec: rec, Oracle: NewOracle(w)}, nil
}

// passShare is the part of a run's seconds that whole passes may fill; the
// rest goes to repeats of the slowest cell.
const passShare = 0.75

// Untraced measures with tracing off for the given number of seconds.
// Native passes come first, at least one, until the next would end after
// passShare of the time. Then the cell that was slowest over those passes
// is run again, the same native way, for as long as another repeat fits:
// a pass reads every cell once, which leaves slowest_cell_s three to six
// readings of one cell in a run, and a single reading scatters by 10–25 %
// while the machine is being slowed down (calib.go). The repeats give the
// one cell that decides slowest_cell_s, and weighs most in
// sim_kinstr_per_s, ten to thirty.
func Untraced(r *Runner, seconds float64) (passes []Pass, repeats []CellRun, err error) {
	begin := time.Now()
	// fits reports whether work that took cost seconds would end within limit.
	fits := func(cost, limit float64) bool { return time.Since(begin).Seconds()+cost <= limit }
	for {
		p, err := r.Native()
		if err != nil {
			return nil, nil, err
		}
		passes = append(passes, p)
		if !fits(time.Since(begin).Seconds()/float64(len(passes)), passShare*seconds) {
			break
		}
	}
	slow := slowestCell(CellTable(passes, nil))
	sub, err := r.only(slow.Name)
	if err != nil {
		return nil, nil, err
	}
	// A repeat costs its cell plus the calibrations around it: start from a
	// generous guess, then go by what the last one took.
	cost := 1.5 * slow.Wall.Median
	for fits(cost, seconds) {
		start := time.Now()
		p, err := sub.Native()
		if err != nil {
			return nil, nil, err
		}
		repeats = append(repeats, p.Cells[0])
		cost = time.Since(start).Seconds()
	}
	return passes, repeats, nil
}

// only returns a runner over the one named cell of r's workload, sharing
// r's oracle, so a repeat must reproduce the cell's statistics like any pass.
func (r *Runner) only(cell string) (*Runner, error) {
	for ai := range r.W.Apps {
		for si, sched := range r.W.Scheds {
			if r.W.Apps[ai].Name+"/"+sched != cell {
				continue
			}
			w := *r.W
			w.Apps, w.Order = r.W.Apps[ai:ai+1], []int{0}
			w.Scheds, w.Cfgs = r.W.Scheds[si:si+1], r.W.Cfgs[si:si+1]
			sub := *r
			sub.W = &w
			return &sub, nil
		}
	}
	return nil, fmt.Errorf("measure: workload %s has no cell %q", r.W.Name, cell)
}

// slowestCell returns the row with the largest median scaled wall.
func slowestCell(cells []CellStat) CellStat {
	slow := cells[0]
	for _, c := range cells[1:] {
		if c.Scaled.Median > slow.Scaled.Median {
			slow = c
		}
	}
	return slow
}

// Metric is one reported value with the spread behind it.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Q1, Q3 and N describe the repeated readings behind Value (per pass,
	// per set-up); N is 1 for a single reading.
	Q1 float64 `json:"q1"`
	Q3 float64 `json:"q3"`
	N  int     `json:"n"`
}

func fromSample(s Sample, unit string) Metric {
	return Metric{Value: s.Median, Unit: unit, Q1: s.Q1, Q3: s.Q3, N: s.N}
}

func single(v float64, unit string) Metric { return Metric{Value: v, Unit: unit, Q1: v, Q3: v, N: 1} }

// EndToEndMetrics reduces the untraced passes, the per-cell table over
// them and the repeats, and the set-up times to the end-to-end metrics.
// Both timings are built from each cell's median scaled wall over its
// readings (see calib.go for the scaling): their sum, plus the median time
// a harness pass spends outside its cells, is the pass that
// sim_kinstr_per_s divides the instructions by; their maximum is
// slowest_cell_s. The quartiles and count beside sim_kinstr_per_s are
// those of the per-pass readings, beside slowest_cell_s those of the
// slowest cell's readings.
func EndToEndMetrics(passes []Pass, cells []CellStat, setup []float64, rssMB float64) map[string]Metric {
	instr := float64(passes[0].Instructions()) / 1e3
	var rate, self []float64
	for i := range passes {
		rate = append(rate, instr/passes[i].Scaled())
		self = append(self, passes[i].Self)
	}
	sum := Summarize(self).Median
	for _, c := range cells {
		sum += c.Scaled.Median
	}
	r := fromSample(Summarize(rate), "kinstr/s")
	r.Value = instr / sum
	return map[string]Metric{
		"sim_kinstr_per_s": r,
		"slowest_cell_s":   fromSample(slowestCell(cells).Scaled, "s"),
		"setup_s":          fromSample(Summarize(setup), "s"),
		"peak_rss_mb":      single(rssMB, "MB"),
	}
}

// CellStat is one row of the per-cell table.
type CellStat struct {
	Name         string `json:"name"`
	Instructions int64  `json:"instructions"`
	Cycles       int64  `json:"cycles"`
	// Wall summarises the cell's raw walls over its readings (one per pass,
	// then the repeats), Scaled its scaled walls; KInstrPerS is taken at the
	// scaled median.
	Wall       Sample  `json:"wall_s"`
	Scaled     Sample  `json:"scaled_s"`
	KInstrPerS float64 `json:"kinstr_per_s"`
	// Walls is the raw wall of each reading, in run order.
	Walls []float64 `json:"walls_s"`
}

// CellTable summarises each cell over the passes and the repeats, in name
// order.
func CellTable(passes []Pass, repeats []CellRun) []CellStat {
	rows := map[string]*CellStat{}
	scaled := map[string][]float64{}
	add := func(c CellRun) {
		row := rows[c.Name]
		if row == nil {
			row = &CellStat{Name: c.Name}
			rows[c.Name] = row
		}
		row.Walls = append(row.Walls, c.Wall)
		scaled[c.Name] = append(scaled[c.Name], c.Scaled)
		if c.Run != nil {
			row.Instructions, row.Cycles = c.Run.Instructions, c.Run.Cycles
		}
	}
	for i := range passes {
		for _, c := range passes[i].Cells {
			add(c)
		}
	}
	for _, c := range repeats {
		add(c)
	}
	var out []CellStat
	for name, row := range rows {
		row.Wall, row.Scaled = Summarize(row.Walls), Summarize(scaled[name])
		row.KInstrPerS = float64(row.Instructions) / 1e3 / row.Scaled.Median
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// RBAGainErrPP is the fidelity error against Fig 10 on a pass that holds
// every app under both gto and rba; 0 for any other workload.
func RBAGainErrPP(w *workload.Workload, p *Pass) float64 {
	if !w.Fig10 {
		return 0
	}
	cycles := map[string]int64{}
	for _, c := range p.Cells {
		if c.Run != nil {
			cycles[c.Name] = c.Run.Cycles
		}
	}
	var gains []float64
	for _, a := range w.Apps {
		gto, rba := cycles[a.Name+"/gto"], cycles[a.Name+"/rba"]
		if gto == 0 || rba == 0 {
			return math.Inf(1) // a faulted cell: the oracle has already failed the run
		}
		gains = append(gains, float64(gto)/float64(rba))
	}
	return math.Abs(stats.GeoMean(gains)-fig10RBAGain) * 100
}

// FidelityMetrics are the exact values every run prints.
func FidelityMetrics(r *Runner, p *Pass) map[string]Metric {
	failed := 0.0
	if attempted, bad, _ := r.Checked(); attempted > 0 {
		failed = 100 * float64(bad) / float64(attempted)
	}
	return map[string]Metric{
		"rba_gain_err_pp":  single(RBAGainErrPP(r.W, p), "pp"),
		"cells_failed_pct": single(failed, "%"),
	}
}

// Driver sizes of the traced run: enough batches for stable means, a few
// hundred milliseconds each.
const (
	smcoreCapCycles = 400_000
	regfileTicks    = 400_000
	memLines        = 300_000
	corePicks       = 1 << 18
	overheadReps    = 3
)

// Traced measures the per-layer metrics: an untraced native pass for
// reference, a traced direct pass, the same cells through the harness
// unguarded and guarded (whichever of the three is the workload's native
// mode is not repeated), the fast-forward, snapshot and telemetry probes,
// and the layer drivers. Every cell any of these runs goes through the
// oracle, which is what makes the harness, guard-ring, no-fast-forward
// and snapshot-resume twins of a cell serialise identically.
func Traced(r *Runner) (map[string]Metric, error) {
	rec := r.Rec
	if r.W.Mode == workload.Direct {
		// The reference pass of a direct workload must not pay for spans. A
		// harness pass records two and synthesises the rest, so it keeps them.
		r.Rec = nil
	}
	plain, err := r.Native()
	r.Rec = rec
	if err != nil {
		return nil, err
	}
	direct, err := r.Direct()
	if err != nil {
		return nil, err
	}
	unguarded, guarded := plain, plain
	if r.W.Mode != workload.Harness {
		if unguarded, err = r.Harness(false); err != nil {
			return nil, err
		}
	}
	if r.W.Mode != workload.Guarded {
		if guarded, err = r.Harness(true); err != nil {
			return nil, err
		}
	}

	m := map[string]Metric{}
	set := func(name string, v float64) {
		for _, d := range PerLayer {
			if d.Name == name {
				m[name] = single(v, d.Unit)
				return
			}
		}
		panic("measure: metric " + name + " is not in the catalogue") // a typo in this file
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	// Exact counts and span times of the traced direct pass.
	var cycles, ff, occSum, occN, reads, conflicts, l1hit, l1all int64
	var runNS float64
	var allocs, allocBytes uint64
	var cpi stats.CPIStack
	var cov float64
	ran := 0
	for _, c := range direct.Cells {
		if c.Run == nil {
			continue
		}
		ran++
		cycles += c.Run.Cycles
		ff += c.FF
		occSum += c.Run.OccupancySum
		occN += c.Run.OccupancySamples
		reads += c.Run.TotalRegReads()
		conflicts += c.Run.TotalBankConflicts()
		for i := range c.Run.SMs {
			l1hit += c.Run.SMs[i].L1Hits
			l1all += c.Run.SMs[i].L1Hits + c.Run.SMs[i].L1Misses
		}
		st := c.Run.CPIStack()
		st.AddTo(&cpi)
		cov += c.Run.IssueCoV()
		runNS += float64(c.RunNS) * c.Scaled / c.Wall
		allocs += c.Allocs
		allocBytes += c.AllocBytes
	}
	instr := float64(direct.Instructions())
	// Host times taken from spans are scaled by the factor of the pass that
	// recorded them; the probes and drivers below are bracketed one by one.
	directQuiet := direct.Scaled() / direct.Wall
	build, _ := rec.Total("workloads.build")
	set("workloads.build_ms", directQuiet*float64(build.Nanoseconds())/1e6)
	set("workloads.dyn_kinstr", instr/1e3)
	set("gpu.run_ns_per_cycle", ratio(runNS, float64(cycles)))
	set("gpu.run_ns_per_ticked_cycle", ratio(runNS, float64(cycles-ff)))
	set("gpu.sim_cycles", float64(cycles))
	set("gpu.sim_ipc", ratio(instr, float64(cycles)))
	set("gpu.ff_cycles_pct", 100*ratio(float64(ff), float64(cycles)))
	set("gpu.occupancy_warps", ratio(float64(occSum), float64(occN)))
	set("gpu.allocs_per_cell", ratio(float64(allocs), float64(ran)))
	set("gpu.alloc_kb_per_cell", ratio(float64(allocBytes)/1024, float64(ran)))
	shares := cpi.Shares()
	for c, name := range []string{"issue", "bank_conflict", "cu_full", "scoreboard", "memory", "barrier", "imbalance", "idle"} {
		set("smcore.cpi_"+name+"_pct", 100*shares[c])
	}
	set("smcore.issue_cov", ratio(cov, float64(ran)))
	set("regfile.reads_per_instr", ratio(float64(reads), instr))
	set("regfile.bank_conflicts_per_kinstr", ratio(float64(conflicts), instr/1e3))
	set("mem.l1_accesses_per_kinstr", ratio(float64(l1all), instr/1e3))
	set("mem.l1_hit_pct", 100*ratio(float64(l1hit), float64(l1all)))
	set("benchmark.trace_overhead_pct", 100*(ratio(direct.CellScaled(), plain.CellScaled())-1))

	// The harness from outside.
	self := unguarded.Scaled() / unguarded.Wall * float64(rec.SelfTotal("harness.run").Nanoseconds()) / 1e3
	set("harness.self_us_per_cell", ratio(self, float64(len(unguarded.Cells))))
	set("harness.guard_overhead_pct", 100*(ratio(guarded.Scaled(), unguarded.Scaled())-1))
	set("harness.snapshot_frames", float64(guarded.Frames))
	set("harness.checkpoint_kb", guarded.CheckpointKB)
	set("bench.write_us", guarded.Scaled()/guarded.Wall*guarded.BenchWriteUS)

	// Probes on single cells: the cell with the most simulated cycles for
	// the snapshot hook, the small build's first cell for the rest.
	var longest workload.Cell
	var most int64
	for i, c := range r.W.Cells() {
		if run := direct.Cells[i].Run; run != nil && run.Cycles > most {
			longest, most = c, run.Cycles
		}
	}
	r.noFastForwardTwin()
	b := openBracket()
	snap := r.snapshotProbe(longest)
	q := b.quiet()
	set("snapshot.write_us", q*snap.writeUS)
	set("snapshot.restore_us", q*snap.restoreUS)
	set("snapshot.kb", snap.kb)
	set("audit.check_us", q*snap.auditUS)
	tr, met := r.Small.telemetryOverhead(r.Small.W.First())
	set("trace.enabled_overhead_pct", tr)
	set("metrics.enabled_overhead_pct", met)

	// Span means over everything recorded so far (passes and probes).
	mean := func(name string) float64 {
		sum, n := rec.Total(name)
		return ratio(float64(sum.Nanoseconds())/1e3, float64(n))
	}
	set("gpu.new_us", directQuiet*mean("gpu.new"))
	set("stats.digest_us", directQuiet*mean("stats.digest"))

	// Layer drivers, on the workload's apps under its first configuration.
	apps, cfg := r.W.Apps, r.W.First().Cfg
	b = openBracket()
	sm, err := drivers.SMCore(rec, cfg, apps, smcoreCapCycles)
	if err != nil {
		return nil, err
	}
	q = b.quiet()
	set("smcore.tick_ns", q*sm.Tick.NS())
	set("smcore.idle_tick_ns", q*sm.IdleTick.NS())
	set("smcore.next_event_ns", q*sm.NextEvent.NS())
	b = openBracket()
	rf := drivers.Regfile(rec, cfg, apps, regfileTicks)
	q = b.quiet()
	set("regfile.collector_tick_ns", q*rf.NS())
	b = openBracket()
	mm := drivers.Mem(rec, cfg, apps, memLines)
	q = b.quiet()
	set("mem.access_ns", q*mm.Access.NS())
	set("mem.next_event_ns", q*mm.NextEvent.NS())
	set("mem.l2_hit_pct", mm.L2HitPct)
	b = openBracket()
	co := drivers.Core(rec, cfg, apps, corePicks)
	q = b.quiet()
	set("core.pick_ns", q*co.Pick.NS())
	set("core.score_ns", q*co.Score.NS())

	for name, v := range FidelityMetrics(r, &plain) {
		m[name] = v
	}
	return m, nil
}

// noFastForwardTwin reruns the small build's first cell with the
// idle-cycle fast-forward off; the oracle fails it unless it serialises
// like the warm-up run of the same cell. The small build keeps this
// affordable: without fast-forward an idle-heavy cell ticks every one of
// its cycles.
func (r *Runner) noFastForwardTwin() {
	root := r.Rec.Begin("probe.no_fast_forward", span.None, 0)
	defer r.Rec.End(root)
	c := r.Small.W.First()
	r.Small.Cell(workload.Cell{App: c.App, Sched: c.Sched, Cfg: c.Cfg.WithNoFastForward()}, root, nil)
}

type snapshotCost struct{ writeUS, restoreUS, kb, auditUS float64 }

// maxFrames bounds the frames the snapshot probe keeps in memory.
const maxFrames = 32

// snapshotProbe runs a cell with the benchmark's own snapshot hook, which
// serialises the device every GuardInterval cycles, mid-kernel, and keeps
// an evenly thinned sample of the frames. The hook itself reads no clock:
// it runs inside the simulator's loop, where the tree's determinism rule
// allows no wall-clock read. The costs are timed afterwards, outside the
// loop, on each kept frame: Restore into a fresh device, then
// WriteSnapshot and AuditCheck on that restored mid-kernel state. The
// last frame's device is then run to completion, which must reproduce the
// cell's statistics.
func (r *Runner) snapshotProbe(c workload.Cell) snapshotCost {
	root := r.Rec.Begin("probe.snapshot", span.None, 0)
	defer r.Rec.End(root)
	var frames [][]byte
	var next, stride int64 = 0, GuardInterval
	r.Cell(c, root, func(g *gpu.GPU) {
		g.SetSnapshotHook(func(g *gpu.GPU) error {
			if g.Cycle() < next {
				return nil
			}
			next = g.Cycle() + stride
			var frame bytes.Buffer
			if err := g.WriteSnapshot(&frame); err != nil {
				return err
			}
			frames = append(frames, frame.Bytes())
			if len(frames) == maxFrames {
				// Keep every other frame and halve the rate from here on.
				for i := 0; i < maxFrames/2; i++ {
					frames[i] = frames[2*i+1]
				}
				frames = frames[:maxFrames/2]
				stride *= 2
			}
			return nil
		})
	})
	if len(frames) == 0 {
		return snapshotCost{} // shorter than one heartbeat: nothing to snapshot
	}
	var out snapshotCost
	var last *gpu.GPU
	var bytesOut int
	var err error
	for _, frame := range frames {
		var g *gpu.GPU
		if g, err = gpu.New(c.Cfg); err != nil {
			break
		}
		s := r.Rec.Begin("snapshot.restore", root, 0)
		err = g.Restore(bytes.NewReader(frame), c.App.Kernels)
		out.restoreUS += us(r.Rec.End(s))
		if err != nil {
			break
		}
		var again bytes.Buffer
		again.Grow(len(frame)) // the harness writes to a file: buffer growth is not the encoder's cost
		s = r.Rec.Begin("snapshot.write", root, 0)
		err = g.WriteSnapshot(&again)
		out.writeUS += us(r.Rec.End(s))
		if err != nil {
			break
		}
		bytesOut += again.Len()
		s = r.Rec.Begin("audit.check", root, 0)
		vs := g.AuditCheck()
		out.auditUS += us(r.Rec.End(s))
		if len(vs) > 0 {
			err = &gpu.AuditError{Cycle: g.Cycle(), Violations: vs}
			break
		}
		last = g
	}
	if err == nil {
		err = last.ContinueKernels(c.App.Kernels, 0)
	}
	if err != nil {
		r.Oracle.Check(c.App.Name, c.Name(), nil, nil, fmt.Errorf("snapshot probe: %w", err))
		return snapshotCost{}
	}
	r.Oracle.Check(c.App.Name, c.Name(), last.Run(), nil, nil)
	n := float64(len(frames))
	return snapshotCost{writeUS: out.writeUS / n, restoreUS: out.restoreUS / n, auditUS: out.auditUS / n, kb: float64(bytesOut) / 1024 / n}
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// telemetryOverhead runs a cell bare, with an all-SM tracer and with a
// metrics registry attached, overheadReps times each in turn, and returns
// the two overheads in percent of the bare median.
func (r *Runner) telemetryOverhead(c workload.Cell) (tracePct, metricsPct float64) {
	root := r.Rec.Begin("probe.telemetry", span.None, 0)
	defer r.Rec.End(root)
	opt := trace.OptionsFor(&c.Cfg, -1)
	opt.SamplePeriod = 64
	variants := []func(*gpu.GPU){
		nil,
		func(g *gpu.GPU) { g.SetTracer(trace.New(opt)) },
		func(g *gpu.GPU) { g.SetMetrics(metrics.New()) },
	}
	walls := make([][]float64, len(variants))
	for range overheadReps {
		for v, prepare := range variants {
			walls[v] = append(walls[v], r.Cell(c, root, prepare).Wall)
		}
	}
	bare := Summarize(walls[0]).Median
	return 100 * (Summarize(walls[1]).Median/bare - 1), 100 * (Summarize(walls[2]).Median/bare - 1)
}
