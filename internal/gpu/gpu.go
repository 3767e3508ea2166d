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
	"repro/internal/snapshot"
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
	perSub := cfg.RegFileKBPerSubCore * 1024 / (k.RegsPerThread * cfg.WarpSize * 4)
	if perSub == 0 {
		return fmt.Errorf("kernel %s: %d regs/thread exceeds a sub-core register file", k.Name, k.RegsPerThread)
	}
	// And the whole block must fit an empty SM — SM.CanAccept's first fit
	// over identical empty sub-cores — or it would wait for room until the
	// cycle limit.
	perSub = min(perSub, cfg.WarpsPerSubCore())
	if k.WarpsPerBlock > perSub*cfg.SubCoresPerSM {
		return fmt.Errorf("kernel %s: %d warps/block at %d regs/thread fits no SM: a sub-core holds %d such warps (%d slots, %d KB registers), an SM %d",
			k.Name, k.WarpsPerBlock, k.RegsPerThread, perSub, cfg.WarpsPerSubCore(), cfg.RegFileKBPerSubCore, perSub*cfg.SubCoresPerSM)
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
	met    devMetrics

	// auditEvery/auditNext drive the runtime invariant auditor, in
	// WorkCycles (config.AuditEvery; audit.go). snapFn is the harness's
	// snapshot hook and enc WriteSnapshot's encoder; curLaunch exposes the
	// active launch to WriteSnapshot; pending carries a restored mid-kernel
	// launch until ContinueKernels picks it up (snapshot.go). corruptKind
	// arms a test-only heartbeat corruption.
	auditEvery  int64
	auditNext   int64
	snapFn      func(*GPU) error
	enc         snapshot.Encoder
	curLaunch   *launch
	pending     *resumedLaunch
	corruptKind string
}

// gpuState is the device-level state a snapshot carries: plain data only,
// walked whole by snapshot.State (snapshot.go).
type gpuState struct {
	cycle int64
	// ffCycles counts device cycles on which no SM ticked (diagnostic; see
	// FastForwardedCycles).
	ffCycles int64
}

// devMetrics holds the device's live-telemetry handles (nil, and so
// no-ops, without a registry) plus the last-published watermarks. Counters
// are flushed as deltas at heartbeat granularity (monitorPeriod cycles),
// never per cycle, so telemetry stays off the critical loop.
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
// tracer attached every emission site reduces to one nil-check
// (`go run ./benchmark` reports an armed tracer's cost as
// trace.enabled_overhead_pct).
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
// atomic adds. Pass nil to detach (`go run ./benchmark` reports the cost
// of an attached registry as metrics.enabled_overhead_pct).
func (g *GPU) SetMetrics(reg *metrics.Registry) {
	g.met = devMetrics{
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
	m := &g.met
	m.cycles.Add(g.cycle - m.lastCycle)
	m.instrs.Add(g.run.Instructions - m.lastInstr)
	m.lastCycle, m.lastInstr = g.cycle, g.run.Instructions
}

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
// The run loop ticks an SM only at the cycles it has an event (see
// cycleLoop and docs/ARCHITECTURE.md's "Performance" section) unless
// config.NoFastForward keeps every SM awake every cycle; statistics are
// byte-identical either way.
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
	stop := g.cycleLoop(ls)
	g.syncSMs() // statistics are read from here on, whatever stopped the loop
	if stop != stopDone {
		return g.launchError(stop, ls)
	}
	g.harvestCacheStats()
	g.run.Kernels = append(g.run.Kernels, stats.KernelStats{
		Name:         launchLabel(ls.kernels),
		Cycles:       g.cycle - ls.startCycles,
		Instructions: g.run.Instructions - ls.startInstr,
	})
	g.met.kernels.Inc()
	g.flushMetrics()
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

// cycleLoop is the device's one clock. Each iteration offers pending blocks
// to the SMs, ticks the SMs whose wake cycle has come, and advances the
// clock: by one cycle when any SM ticked, and otherwise straight to the
// earliest of the SMs' wakes, the next heartbeat boundary (monitor cadence,
// metrics flushes and cancellation latency are those of a ticked loop) and
// the deadline (CycleLimitError fires at the identical cycle). A sleeping
// SM's time-indexed counters are charged when it next ticks or is synced
// (SM.Sync); what the loop itself feeds per cycle — occupancy sums, the
// tracer's counter samples — reads only fields a sleep cannot change, and
// scales over a jumped span. config.NoFastForward keeps every SM awake, the
// reference the identity tests compare against. Everything on this path
// must stay allocation-free (TestCycleLoopZeroAlloc; the loop runs tens of
// millions of iterations per sweep cell).
//
// Only two things wake an SM from outside: a block placed on it, and —
// for the placement itself — a block retiring anywhere while blocks are
// pending, which is why placement is retried at the head of every
// iteration, before the jump is decided: a retire at cycle c frees room the
// thread-block scheduler must see at c+1, even if every SM then sleeps.
// Barrier release is intra-SM, and nothing comes from memory: the hierarchy
// is analytic, and completions already sit in the SM's writeback heap.
func (g *GPU) cycleLoop(ls *launch) loopStop {
	allAwake := g.cfg.NoFastForward
	for {
		now := g.cycle
		if g.tracer != nil {
			// Publish the cycle before any stage emits events.
			g.tracer.SetNow(now)
		}
		if ls.totalLeft > 0 && !g.placeBlocks(ls) {
			return stopFault
		}
		occ, ticked, wake := 0, false, mem.NeverCycle
		for _, sm := range g.sms {
			if allAwake || sm.Wake() <= now {
				sm.Tick(now)
				ticked = true
			}
			occ += sm.ResidentWarps()
			wake = min(wake, sm.Wake())
		}
		n := int64(1)
		if !ticked {
			// Residency is constant while every SM sleeps (blocks place and
			// retire only on issue activity), so the per-cycle sums scale.
			n = min(wake, (now|(monitorPeriod-1))+1, ls.deadline) - now
			g.ffCycles += n
		}
		g.run.OccupancySum += int64(occ) * n
		g.run.OccupancySamples += int64(len(g.sms)) * n
		if g.tracer != nil {
			g.tracer.SampleRange(now, now+n, g.sms[g.tracer.CounterSM()])
		}
		g.cycle += n
		g.run.Cycles = g.cycle

		// Drained: no SM has an event left and none holds warps.
		if ls.totalLeft == 0 && wake == mem.NeverCycle && occ == 0 {
			return stopDone
		}
		if g.cycle >= ls.deadline {
			return stopDeadline
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
// idempotence the loop relies on when it jumps over the passes a ticked
// loop would have run. A sleeping SM is synced to the current cycle before
// it takes a block. Returns false on a placement fault (ls.err is set).
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
					sm.Sync(g.cycle)
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

// heartbeat runs the per-monitorPeriod supervision duties: sync every SM
// (the auditor and the snapshot hook read the counters a sleeping SM
// defers, and a frame must not depend on who slept), metrics flush,
// monitor beat/cancel poll, the runtime invariant auditor
// (config.AuditEvery), and the harness's snapshot hook. Deliberately not
// on the per-cycle path — everything here may allocate.
//
// The snapshot hook also runs on the heartbeat that observes a
// cancellation, before the loop stops: the device is still mid-launch
// and fully consistent here, so the harness can persist a final frame
// and a restarted process resumes exactly where the SIGTERM/watchdog
// kill landed. A hook failure during cancellation is swallowed — the
// cancel is the fault the caller must see.
func (g *GPU) heartbeat(ls *launch) (loopStop, bool) {
	g.syncSMs()
	g.flushMetrics()
	canceled := g.mon.beat(g.cycle)
	if !canceled {
		if g.corruptKind != "" {
			g.applyCorruption()
		}
		if g.auditEvery > 0 && g.WorkCycles() >= g.auditNext {
			g.auditNext = g.WorkCycles() + g.auditEvery
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

// syncSMs charges every sleeping SM's deferred cycles up to the device
// clock.
func (g *GPU) syncSMs() {
	if g.tracer != nil {
		g.tracer.SetNow(g.cycle) // the KFastForward events carry the sync cycle
	}
	for _, sm := range g.sms {
		sm.Sync(g.cycle)
	}
}

// WorkCycles is the clock the guard is paced by (config.AuditEvery, the
// harness's frames): the sub-core cycles the SMs ran awake over the device's
// sub-core count — ticked cycles when nothing sleeps, a sixteenth of one
// when one sub-core of sixteen ran. What the host paid for, unlike a device
// cycle; counted from zero by every device, restored ones included.
func (g *GPU) WorkCycles() int64 {
	var n int64
	for _, sm := range g.sms {
		n += sm.Work()
	}
	return n / int64(len(g.sms)*g.cfg.SubCoresPerSM)
}

// FastForwardedCycles returns how many device cycles passed with no SM
// ticked over the device's lifetime. Diagnostic only — deliberately not
// part of stats.Run, which must stay byte-identical with
// config.NoFastForward on or off.
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
