// Package gpu assembles the full device: the SM array over a shared
// memory hierarchy, and the thread-block scheduler that launches kernel
// grids onto SMs as resources free up (block granularity, Table I's
// third scheduler level).
package gpu

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/program"
	"repro/internal/smcore"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Kernel describes one kernel launch: a grid of identical-shape thread
// blocks whose warps' instruction streams come from WarpProgram.
type Kernel struct {
	// Name labels the kernel in reports.
	Name string
	// Blocks is the grid size.
	Blocks int
	// WarpsPerBlock is the block size in warps (threads/32).
	WarpsPerBlock int
	// RegsPerThread is the compiler-assigned register footprint.
	RegsPerThread int
	// SharedMemPerBlock is the scratchpad reservation in bytes.
	SharedMemPerBlock int
	// WarpProgram returns warp w of block b's instruction stream.
	// Implementations memoize: most kernels have a handful of distinct
	// per-warp behaviours.
	WarpProgram func(block, warp int) *program.Program
}

// Instructions returns the kernel's total dynamic instruction count.
func (k *Kernel) Instructions() int64 {
	var t int64
	for b := 0; b < k.Blocks; b++ {
		for w := 0; w < k.WarpsPerBlock; w++ {
			t += k.WarpProgram(b, w).Len()
		}
	}
	return t
}

// Validate checks the kernel is runnable on cfg.
func (k *Kernel) Validate(cfg *config.GPU) error {
	switch {
	case k.Blocks < 1:
		return fmt.Errorf("kernel %s: no blocks", k.Name)
	case k.WarpsPerBlock < 1:
		return fmt.Errorf("kernel %s: no warps per block", k.Name)
	case k.WarpsPerBlock > cfg.MaxWarpsPerSM:
		return fmt.Errorf("kernel %s: %d warps/block exceeds SM capacity %d", k.Name, k.WarpsPerBlock, cfg.MaxWarpsPerSM)
	case k.SharedMemPerBlock > cfg.SharedMemKBPerSM*1024:
		return fmt.Errorf("kernel %s: shared memory %d exceeds SM capacity", k.Name, k.SharedMemPerBlock)
	case k.RegsPerThread < 1:
		return fmt.Errorf("kernel %s: RegsPerThread must be >= 1", k.Name)
	case k.WarpProgram == nil:
		return fmt.Errorf("kernel %s: nil WarpProgram", k.Name)
	}
	// A single warp must fit one sub-core's register file.
	if k.RegsPerThread*cfg.WarpSize*4 > cfg.RegFileKBPerSubCore*1024 {
		return fmt.Errorf("kernel %s: %d regs/thread exceeds a sub-core register file", k.Name, k.RegsPerThread)
	}
	return nil
}

// GPU is a simulated device instance. A GPU is single-use per Run result:
// Reset rebuilds state between applications. Its own mutable state is the
// embedded gpuState; the SMs, the hierarchy, the statistics and an
// in-flight launch carry theirs.
type GPU struct {
	cfg  config.GPU
	hier *mem.Hierarchy
	sms  []*smcore.SM
	run  *stats.Run

	// cfgAtNew is the validated configuration New was given. Every SM holds
	// &g.cfg, so a write through any of them after construction shows as
	// cfg != cfgAtNew — the auditor's `config` law (audit.go).
	cfgAtNew config.GPU

	gpuState

	tracer *trace.Tracer
	mon    *Monitor
	met    *devMetrics

	// auditEvery/auditNext drive the runtime invariant auditor
	// (config.AuditEvery; audit.go). snapFn is the harness's snapshot
	// hook; curLaunch exposes the active launch to WriteSnapshot; pending
	// carries a restored mid-kernel launch until ContinueKernels picks it
	// up (snapshot.go). corruptKind arms a test-only heartbeat corruption.
	auditEvery  int64
	auditNext   int64
	snapFn      func(*GPU) error
	curLaunch   *launch
	pending     *resumedLaunch
	corruptKind string
}

// gpuState is the device-level state a snapshot carries: plain data only,
// walked whole by snapshot.State (snapshot.go).
type gpuState struct {
	cycle int64
	// ffCycles counts cycles skipped by the idle-cycle fast-forward
	// (diagnostic; see FastForwardedCycles).
	ffCycles int64
}

// devMetrics holds the device's live-telemetry handles plus the
// last-published watermarks. Counters are flushed as deltas at
// heartbeat granularity (monitorPeriod cycles), never per cycle, so the
// enabled path stays off the critical loop and the disabled path is one
// nil check per heartbeat.
type devMetrics struct {
	cycles  *metrics.Counter
	instrs  *metrics.Counter
	kernels *metrics.Counter

	lastCycle int64
	lastInstr int64
}

// New builds a device for the configuration.
func New(cfg config.GPU) (*GPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &GPU{cfg: cfg, cfgAtNew: cfg, auditEvery: cfg.AuditEvery}
	g.reset()
	return g, nil
}

func (g *GPU) reset() {
	g.hier = mem.NewHierarchy(g.cfg)
	g.run = stats.NewRun(g.cfg.NumSMs, g.cfg.SubCoresPerSM)
	g.sms = g.sms[:0]
	for i := 0; i < g.cfg.NumSMs; i++ {
		g.sms = append(g.sms, smcore.NewSM(i, &g.cfg, g.hier, g.run))
	}
	g.cycle = 0
	if g.tracer != nil {
		for _, sm := range g.sms {
			sm.SetTracer(g.tracer)
		}
	}
}

// SetTracer attaches an observability tracer (see internal/trace) to the
// device, wiring each SM's emission handle through its sub-cores, operand
// collectors, and LSU. Call before RunKernel; pass nil to detach. With no
// tracer attached every emission site reduces to one nil-check — the
// disabled fast path measured by BenchmarkTracingOverhead.
func (g *GPU) SetTracer(t *trace.Tracer) {
	g.tracer = t
	for _, sm := range g.sms {
		sm.SetTracer(t)
	}
}

// Tracer returns the attached tracer, or nil.
func (g *GPU) Tracer() *trace.Tracer { return g.tracer }

// SetMetrics attaches a live telemetry registry: simulated cycles,
// issued instructions, and completed kernels stream to it at heartbeat
// granularity. The handles are shared device-wide aggregates — several
// concurrent GPUs (a sweep's workers) feed the same counters through
// atomic adds. Pass nil to detach (the nil-guarded fast path measured
// by BenchmarkMetricsOverhead).
func (g *GPU) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		g.met = nil
		return
	}
	g.met = &devMetrics{
		cycles:  reg.Counter("sim_cycles_total", "simulated device cycles across all runs feeding this registry"),
		instrs:  reg.Counter("sim_instructions_total", "warp instructions issued across all runs feeding this registry"),
		kernels: reg.Counter("sim_kernels_total", "kernel launches completed"),
		// Deltas are relative to this device's own cycle/instruction
		// space, which survives across RunKernel calls.
		lastCycle: g.cycle,
		lastInstr: g.run.Instructions,
	}
}

// flushMetrics publishes the cycle/instruction deltas accumulated since
// the previous flush. Called at heartbeat boundaries and at kernel
// completion — never per cycle.
func (g *GPU) flushMetrics() {
	m := g.met
	if m == nil {
		return
	}
	m.cycles.Add(g.cycle - m.lastCycle)
	m.instrs.Add(g.run.Instructions - m.lastInstr)
	m.lastCycle, m.lastInstr = g.cycle, g.run.Instructions
}

// Config returns the device configuration.
func (g *GPU) Config() config.GPU { return g.cfg }

// Run returns the accumulated statistics.
func (g *GPU) Run() *stats.Run { return g.run }

// DefaultMaxCycles bounds a kernel simulation as a deadlock backstop.
const DefaultMaxCycles = 50_000_000

// RunKernel simulates one kernel to completion, accumulating into the
// device's stats. maxCycles <= 0 selects DefaultMaxCycles.
func (g *GPU) RunKernel(k *Kernel, maxCycles int64) error {
	return g.RunConcurrent([]*Kernel{k}, maxCycles)
}

// RunConcurrent simulates several kernels launched together (concurrent
// kernel execution on separate streams): the thread-block scheduler
// interleaves pending blocks round-robin across kernels, so an SM can
// hold blocks of different kernels at once. This is the scenario behind
// the paper's third and fourth partitioning effects (Section I): warps
// with diverse execution-unit demands, and diverse register-capacity
// demands, pinned to sub-cores.
//
// The run loop fast-forwards over provably-inert cycle spans (see
// cycleLoop and docs/ARCHITECTURE.md's "Performance" section) unless
// config.NoFastForward is set; statistics are byte-identical either way.
func (g *GPU) RunConcurrent(kernels []*Kernel, maxCycles int64) error {
	if err := g.validateLaunch(kernels); err != nil {
		return err
	}
	if maxCycles <= 0 {
		maxCycles = DefaultMaxCycles
	}
	for _, sm := range g.sms {
		sm.ResetForKernel()
	}
	return g.runLaunch(g.newLaunch(kernels, maxCycles))
}

// runLaunch drives a prepared launch to completion and finalizes its
// stats entry. Shared by the fresh path (RunConcurrent) and the
// snapshot-resume path (ContinueKernels), which must not re-run
// ResetForKernel or restart the launch bookkeeping.
func (g *GPU) runLaunch(ls *launch) error {
	g.curLaunch = ls
	defer func() { g.curLaunch = nil }()
	if stop := g.cycleLoop(ls); stop != stopDone {
		return g.launchError(stop, ls)
	}
	g.harvestCacheStats()
	g.run.Kernels = append(g.run.Kernels, stats.KernelStats{
		Name:         launchLabel(ls.kernels),
		Cycles:       g.cycle - ls.startCycles,
		Instructions: g.run.Instructions - ls.startInstr,
	})
	if g.met != nil {
		g.met.kernels.Inc()
		g.flushMetrics()
	}
	return nil
}

// launch is one RunConcurrent call's thread-block-scheduler state,
// hoisted into a struct so the cycle loop itself allocates nothing. The
// embedded launchState is what a snapshot carries; the rest is the kernel
// batch itself (a workload artifact, rebound by Restore) and values
// recomputed from it.
type launch struct {
	kernels []*Kernel
	launchState
	// specs[i] caches the materialized BlockSpec of kernels[i]'s next
	// block until that block places, so the per-cycle placement probe does
	// not rebuild the program slice.
	specs       []*smcore.BlockSpec
	gidOffset   []int64
	totalLeft   int
	totalBlocks int
	// err carries a placement fault out of the loop (stopFault).
	err error
}

// launchState is the launch's mutable state: plain data only, walked whole
// by snapshot.State (snapshot.go).
type launchState struct {
	maxCycles int64
	// deadline is an absolute cycle, so a resumed run faults at the
	// identical point.
	deadline int64
	// nextBlock[i] is the next unplaced block of kernels[i].
	nextBlock []int `snap:"fixed"`
	// kPtr/smPtr are the round-robin cursors over kernels and SMs.
	kPtr, smPtr int
	// startCycles/startInstr are the device watermarks at launch start,
	// for the KernelStats delta (they ride snapshots, so a resumed launch
	// finalizes the identical entry).
	startCycles int64
	startInstr  int64
	// idleStreak counts the issueless cycles since the last issue and
	// nextProbe is the streak at which cycleLoop next tries a fast-forward.
	// Neither can change a statistic, but they decide which idle cycles are
	// skipped rather than ticked — what ffCycles counts, and when the MSHRs
	// retire completed fills — so a resumed launch continues the schedule.
	idleStreak, nextProbe int64
}

// newLaunch sizes the launch bookkeeping — the only allocations of a
// RunConcurrent call outside block materialization.
func (g *GPU) newLaunch(kernels []*Kernel, maxCycles int64) *launch {
	ls := &launch{
		kernels: kernels,
		launchState: launchState{
			maxCycles:   maxCycles,
			deadline:    g.cycle + maxCycles,
			nextBlock:   make([]int, len(kernels)),
			startCycles: g.cycle,
			startInstr:  g.run.Instructions,
			nextProbe:   ffProbeAfter,
		},
		specs:     make([]*smcore.BlockSpec, len(kernels)),
		gidOffset: make([]int64, len(kernels)),
	}
	// Kernel-wide warp IDs must not collide across concurrent kernels;
	// offset each kernel's GID space.
	var off int64
	for i, k := range kernels {
		ls.totalLeft += k.Blocks
		ls.totalBlocks += k.Blocks
		ls.gidOffset[i] = off
		off += int64(k.Blocks) * int64(k.WarpsPerBlock)
	}
	return ls
}

// validateLaunch rejects a malformed kernel set before any state is
// touched. Once per launch, not per cycle.
func (g *GPU) validateLaunch(kernels []*Kernel) error {
	if len(kernels) == 0 {
		return fmt.Errorf("gpu: no kernels to run")
	}
	for _, k := range kernels {
		if err := k.Validate(&g.cfg); err != nil {
			return err
		}
	}
	return nil
}

// launchLabel names a kernel batch's stats entry.
func launchLabel(kernels []*Kernel) string {
	if len(kernels) > 1 {
		return fmt.Sprintf("%s(+%d concurrent)", kernels[0].Name, len(kernels)-1)
	}
	return kernels[0].Name
}

// loopStop is cycleLoop's exit condition. The loop returns an enum and
// launchError materializes the error outside the hot path, keeping the
// loop free of composite-literal allocations.
type loopStop uint8

const (
	stopDone loopStop = iota
	stopDeadline
	stopCanceled
	stopFault
)

// launchError materializes a non-done stop condition as the error
// RunConcurrent returns.
func (g *GPU) launchError(stop loopStop, ls *launch) error {
	switch stop {
	case stopDeadline:
		return &CycleLimitError{
			Kernel:         ls.kernels[0].Name,
			MaxCycles:      ls.maxCycles,
			BlocksLaunched: ls.totalBlocks - ls.totalLeft,
			BlocksTotal:    ls.totalBlocks,
		}
	case stopCanceled:
		return &CancelError{Kernel: ls.kernels[0].Name, Cycle: g.cycle, Reason: g.mon.Reason()}
	case stopFault:
		return ls.err
	}
	return nil
}

// cycleLoop is the device's per-cycle engine: block placement, SM
// ticks, sampling, and the post-cycle drain/deadline/heartbeat checks —
// plus the idle-cycle fast-forward that skips spans in which no SM can
// make progress. Everything on this path must stay allocation-free
// (TestCycleLoopZeroAlloc; the loop runs tens of millions of iterations
// per sweep cell).
// ffProbeAfter is how many consecutive issueless cycles the loop waits
// before probing for a fast-forward. Probes are not free (a device-wide
// next-event scan), and spans worth skipping are long; failed probes
// back off multiplicatively so a stalled-but-hot phase (writebacks and
// collections in flight, nothing issuing) pays O(log n) probes, not one
// per cycle. Probe timing only affects which cycles get skipped — skips
// are inert — so statistics are identical for any schedule.
const ffProbeAfter = 8

func (g *GPU) cycleLoop(ls *launch) loopStop {
	ff := !g.cfg.NoFastForward
	for {
		// Idle-cycle fast-forward, once the device has gone ffProbeAfter
		// cycles without issuing — purely a cost filter: on cycles that
		// issued work the device is certainly hot, and short gaps are not
		// worth a device-wide next-event scan. The probe sits at the top of
		// the iteration, after the previous one's heartbeat, so a launch
		// resumed from that heartbeat's snapshot probes where this one does.
		if ff && ls.idleStreak >= ls.nextProbe {
			if stop, stopped := g.fastForward(ls); stopped {
				return stop
			}
		}
		if g.tracer != nil {
			// Publish the cycle before any stage emits events.
			g.tracer.SetNow(g.cycle)
		}
		if ls.totalLeft > 0 && !g.placeBlocks(ls) {
			return stopFault
		}
		instrBefore := g.run.Instructions
		occ := 0
		for _, sm := range g.sms {
			sm.Tick(g.cycle)
			occ += sm.ResidentWarps()
		}
		g.run.OccupancySum += int64(occ)
		g.run.OccupancySamples += int64(len(g.sms))
		if g.tracer != nil {
			g.tracer.MaybeSample(g.cycle, g.sms[g.tracer.CounterSM()])
		}
		g.cycle++
		g.run.Cycles = g.cycle

		if ls.totalLeft == 0 && g.drained() {
			return stopDone
		}
		if g.cycle >= ls.deadline {
			return stopDeadline
		}
		if g.run.Instructions != instrBefore {
			ls.idleStreak, ls.nextProbe = 0, ffProbeAfter
		} else if ff {
			ls.idleStreak++
		}
		if g.cycle&(monitorPeriod-1) == 0 {
			if stop, stopped := g.heartbeat(ls); stopped {
				return stop
			}
		}
	}
}

// placeBlocks runs the thread-block scheduler: rounds over the pending
// kernels, each round offering every kernel one placement attempt over
// the SM ring, until a full round places nothing. Offering each kernel
// its own attempt per round is what prevents head-of-line blocking — a
// kernel whose next block currently fits nowhere no longer starves
// concurrent kernels with smaller footprints (previously the loop broke
// outright on the first unplaceable block). A fully failed round
// restores kPtr (and the SM cursor returns to its start by walking
// whole laps), so a stalled scheduler pass mutates nothing — the
// idempotence the fast-forward path relies on when it skips the passes
// the ticked loop would have run. Returns false on a placement fault
// (ls.err is set).
func (g *GPU) placeBlocks(ls *launch) bool {
	for ls.totalLeft > 0 {
		placedAny := false
		startK := ls.kPtr
		for try := 0; try < len(ls.kernels); try++ {
			// Advance to the next kernel with blocks remaining.
			for ls.nextBlock[ls.kPtr] >= ls.kernels[ls.kPtr].Blocks {
				ls.kPtr = (ls.kPtr + 1) % len(ls.kernels)
			}
			ki := ls.kPtr
			ls.kPtr = (ls.kPtr + 1) % len(ls.kernels)
			spec := ls.specs[ki]
			if spec == nil {
				spec = g.blockSpec(ls.kernels[ki], ls.nextBlock[ki], ls.gidOffset[ki])
				ls.specs[ki] = spec
			}
			for scan := 0; scan < len(g.sms); scan++ {
				sm := g.sms[ls.smPtr]
				ls.smPtr = (ls.smPtr + 1) % len(g.sms)
				if sm.CanAccept(spec) {
					if err := sm.Allocate(spec); err != nil {
						ls.err = err
						return false
					}
					ls.nextBlock[ki]++
					ls.specs[ki] = nil
					ls.totalLeft--
					placedAny = true
					break
				}
			}
			if ls.totalLeft == 0 {
				break
			}
		}
		if !placedAny {
			// Failed rounds leave no trace: restore the kernel cursor the
			// skip-exhausted walk may have moved.
			ls.kPtr = startK
			break
		}
	}
	return true
}

// fastForward attempts an idle-cycle skip from the current cycle: when
// every SM's next event lies strictly in the future, jump straight to
// the earliest one — capped at the next heartbeat boundary (preserving
// monitor cadence, metrics flushes, and cancellation latency) and at
// the deadline (so CycleLimitError fires at the identical cycle the
// ticked loop would report). The skipped span's accounting is replayed
// in bulk by skipTo. It books the next probe either way — before the
// heartbeat a skip may land on, so a snapshot taken there carries it —
// and returns stopped=true when the skip landed on the deadline or
// observed a cancel.
func (g *GPU) fastForward(ls *launch) (stop loopStop, stopped bool) {
	wake := g.nextWake(g.cycle)
	if wake <= g.cycle {
		// Something is hot after all; keep ticking, and back off.
		ls.nextProbe = ls.idleStreak * 2
		return stopDone, false
	}
	// Spans often chain across a wake (e.g. a heartbeat boundary cap):
	// retry on the next idle cycle.
	ls.nextProbe = ls.idleStreak + 1
	if b := (g.cycle &^ (monitorPeriod - 1)) + monitorPeriod; b < wake {
		wake = b
	}
	if ls.deadline < wake {
		wake = ls.deadline
	}
	g.skipTo(wake)
	// Post-skip checks mirror the ticked loop's order exactly. Drain
	// cannot change across a quiescent span, so only deadline and
	// heartbeat need re-checking.
	if g.cycle >= ls.deadline {
		return stopDeadline, true
	}
	if g.cycle&(monitorPeriod-1) == 0 {
		return g.heartbeat(ls)
	}
	return stopDone, false
}

// heartbeat runs the per-monitorPeriod supervision duties shared by the
// ticked loop and the fast-forward wake path: metrics flush, monitor
// beat/cancel poll, the runtime invariant auditor (config.AuditEvery),
// and the harness's snapshot hook. Deliberately not on the per-cycle
// path — everything here may allocate.
//
// The snapshot hook also runs on the heartbeat that observes a
// cancellation, before the loop stops: the device is still mid-launch
// and fully consistent here, so the harness can persist a final frame
// and a restarted process resumes exactly where the SIGTERM/watchdog
// kill landed. A hook failure during cancellation is swallowed — the
// cancel is the fault the caller must see.
func (g *GPU) heartbeat(ls *launch) (loopStop, bool) {
	g.flushMetrics()
	canceled := g.mon.beat(g.cycle)
	if !canceled {
		if g.corruptKind != "" {
			g.applyCorruption()
		}
		if g.auditEvery > 0 && g.cycle >= g.auditNext {
			g.auditNext = g.cycle + g.auditEvery
			if vs := g.AuditCheck(); len(vs) > 0 {
				ls.err = &AuditError{Cycle: g.cycle, Violations: vs}
				return stopFault, true
			}
		}
	}
	if g.snapFn != nil {
		if err := g.snapFn(g); err != nil && !canceled {
			ls.err = fmt.Errorf("gpu: snapshot hook at cycle %d: %w", g.cycle, err)
			return stopFault, true
		}
	}
	if canceled {
		return stopCanceled, true
	}
	return stopDone, false
}

// nextWake computes the device-wide next-event cycle: the min over all
// SMs' NextEvent and the memory system's, or now when any SM is hot.
// The memory-system events never initiate SM work by themselves (the
// hierarchy is analytic), so including them only shortens skips — a
// conservative bound, never a correctness requirement.
func (g *GPU) nextWake(now int64) int64 {
	wake := mem.NeverCycle
	for _, sm := range g.sms {
		e := sm.NextEvent(now)
		if e <= now {
			return now
		}
		if e < wake {
			wake = e
		}
	}
	if e := g.hier.NextEvent(now); e > now && e < wake {
		wake = e
	}
	return wake
}

// skipTo bulk-charges cycles [g.cycle, wake) and jumps the clock. Every
// per-cycle side channel the ticked loop feeds — CPI-stack stall
// buckets, occupancy sums, the tracer's counter samples — advances by
// exactly what the skipped ticks would have produced, which is what
// keeps stats.Run and the sampled series byte-identical with
// fast-forward on or off.
func (g *GPU) skipTo(wake int64) {
	n := wake - g.cycle
	if g.tracer != nil {
		// The KFastForward events emitted below carry the first skipped
		// cycle; the next loop iteration republishes the wake cycle.
		g.tracer.SetNow(g.cycle)
	}
	occ := 0
	for _, sm := range g.sms {
		sm.FastForward(g.cycle, n)
		occ += sm.ResidentWarps()
	}
	// Residency is constant across a quiescent span (blocks place and
	// retire only on issue activity), so the per-cycle sums scale.
	g.run.OccupancySum += int64(occ) * n
	g.run.OccupancySamples += n * int64(len(g.sms))
	if g.tracer != nil {
		g.tracer.SampleRange(g.cycle, wake, g.sms[g.tracer.CounterSM()])
	}
	g.ffCycles += n
	g.cycle = wake
	g.run.Cycles = g.cycle
}

// FastForwardedCycles returns how many cycles the idle-cycle
// fast-forward has skipped over the device's lifetime. Diagnostic only —
// deliberately not part of stats.Run, which must stay byte-identical
// with fast-forward on or off.
func (g *GPU) FastForwardedCycles() int64 { return g.ffCycles }

// blockSpec materializes block b of kernel k; gidOffset displaces the
// kernel's warp-GID space under concurrent execution. Called once per
// placed block: the launch caches the spec until placement succeeds.
func (g *GPU) blockSpec(k *Kernel, b int, gidOffset int64) *smcore.BlockSpec {
	progs := make([]*program.Program, k.WarpsPerBlock)
	for w := range progs {
		progs[w] = k.WarpProgram(b, w)
	}
	return &smcore.BlockSpec{
		KernelBlockID:  b,
		Programs:       progs,
		RegsPerThread:  k.RegsPerThread,
		SharedMemBytes: k.SharedMemPerBlock,
		FirstWarpGID:   gidOffset + int64(b)*int64(k.WarpsPerBlock),
	}
}

func (g *GPU) drained() bool {
	for _, sm := range g.sms {
		if !sm.Drained() {
			return false
		}
	}
	return true
}

func (g *GPU) harvestCacheStats() {
	for i := range g.run.SMs {
		l1 := g.hier.L1(i)
		g.run.SMs[i].L1Hits = l1.Hits
		g.run.SMs[i].L1Misses = l1.Misses
	}
}

// RunKernels simulates a sequence of kernels (one application).
func (g *GPU) RunKernels(ks []*Kernel, maxCycles int64) error {
	for _, k := range ks {
		if err := g.RunKernel(k, maxCycles); err != nil {
			return err
		}
	}
	return nil
}
