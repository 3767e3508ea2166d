package gpu

import (
	"fmt"
	"io"

	"repro/internal/program"
	"repro/internal/smcore"
	"repro/internal/snapshot"
)

// SetSnapshotHook attaches fn to the run loop's heartbeat: every
// monitorPeriod cycles the hook may call WriteSnapshot on the quiescent
// device (between cycles, every conservation law intact). A hook error
// faults the run. Pass nil to detach. The harness uses this for periodic
// mid-kernel snapshots (cycle-interval and wall-clock policies live in
// the hook, not here).
func (g *GPU) SetSnapshotHook(fn func(*GPU) error) { g.snapFn = fn }

// Cycle returns the device's current simulation cycle.
func (g *GPU) Cycle() int64 { return g.cycle }

// WriteSnapshot serializes the device's complete mutable state — clock,
// statistics, thread-block scheduler position, every SM (warps,
// scoreboards, collectors, execution-port timing, LSU), and the memory
// hierarchy — as one versioned, checksummed frame. Valid between cycles:
// from the snapshot hook (mid-kernel) or between RunKernel calls. The
// frame is deterministic: equal states serialize to equal bytes.
func (g *GPU) WriteSnapshot(w io.Writer) error {
	g.syncSMs()
	e := &g.enc // one per device: only its first frame grows the buffer
	e.Reset()
	// What the restore target is compared against comes first: the machine
	// the frame was taken on, not its label or run mode — a frame written
	// under the auditor or without fast-forward continues without either.
	e.Bytes([]byte(g.cfg.MachineID()))
	// The statistics decode in place (snap:"fixed"): every SM counts into
	// &run.SMs[i] and its SubCores, which keep their identity.
	e.State(&g.gpuState, g.run)
	// The in-flight batch's size, 0 between launches; the kernels
	// themselves are workload artifacts, rebound by Restore.
	if ls := g.curLaunch; ls != nil {
		e.Uvarint(uint64(len(ls.kernels)))
		e.State(&ls.launchState)
	} else {
		e.Uvarint(0)
	}
	g.hier.EncodeState(e)
	for _, sm := range g.sms {
		sm.EncodeState(e)
	}
	return e.Finish(w)
}

// Restore loads a snapshot into a freshly built device of the identical
// machine (config.GPU.Machine: the label, the auditor and fast-forward may
// differ). ks is the application's full kernel sequence — the same
// workload the snapshot was taken under; mid-kernel snapshots rebind
// their warps' instruction streams through it (programs are
// deterministic workload artifacts, rebuilt rather than serialized, and
// any mismatch fails loudly). After a successful Restore, run
// ContinueKernels(ks, ...) to resume the simulation.
func (g *GPU) Restore(r io.Reader, ks []*Kernel) error {
	d, err := snapshot.NewDecoder(r)
	if err != nil {
		return err
	}
	machine := d.Bytes()
	if err := d.Err(); err != nil {
		return err
	}
	if string(machine) != g.cfg.MachineID() {
		return fmt.Errorf("gpu: snapshot was taken on a different configuration than this device's (%s)", g.cfg.Name)
	}
	d.State(&g.gpuState, g.run)
	nk := d.Len()
	if err := d.Err(); err != nil {
		return err
	}
	g.pending = nil
	progFor := smcore.ProgramResolver(func(gid int64) (*program.Program, error) {
		return nil, fmt.Errorf("gpu: snapshot holds resident warp %d but no kernel was in flight", gid)
	})
	if nk > 0 {
		ls, err := g.decodeLaunch(d, ks, nk)
		if err != nil {
			return err
		}
		g.pending = &resumedLaunch{ls: ls, next: len(g.run.Kernels) + nk}
		progFor = resolverFor(ls)
	}
	if err := g.hier.RestoreState(d); err != nil {
		return err
	}
	for i, sm := range g.sms {
		if err := sm.RestoreState(d, progFor); err != nil {
			return err
		}
		// A frame is written from synced SMs: each one's clock is the
		// device's.
		if sm.Synced() != g.cycle {
			return fmt.Errorf("gpu: snapshot SM %d's clock reads cycle %d, the device's %d", i, sm.Synced(), g.cycle)
		}
	}
	if err := d.Finish(); err != nil {
		return err
	}
	// Telemetry deltas restart from the restored state: the process that
	// wrote the snapshot already published everything before it.
	g.met.lastCycle, g.met.lastInstr = g.cycle, g.run.Instructions
	g.auditNext = 0
	return nil
}

// decodeLaunch rebuilds the in-flight launch of nk kernels from the
// snapshot plus the caller's kernel sequence: completed launches are
// counted off the restored stats, the next nk kernels are the batch.
func (g *GPU) decodeLaunch(d *snapshot.Decoder, ks []*Kernel, nk int) (*launch, error) {
	done := len(g.run.Kernels)
	if done+nk > len(ks) {
		return nil, fmt.Errorf("gpu: snapshot is mid-launch %d..%d of the application, but only %d kernels were supplied",
			done, done+nk, len(ks))
	}
	batch := ks[done : done+nk]
	if err := g.validateLaunch(batch); err != nil {
		return nil, err
	}
	ls := g.newLaunch(batch, 0)
	d.State(&ls.launchState)
	if err := d.Err(); err != nil {
		return nil, err
	}
	if ls.kPtr < 0 || ls.kPtr >= nk || ls.smPtr < 0 || ls.smPtr >= len(g.sms) {
		return nil, fmt.Errorf("gpu: snapshot scheduler cursors (kernel %d, SM %d) out of range", ls.kPtr, ls.smPtr)
	}
	// The loop stops on reaching the deadline, before any hook runs.
	if ls.deadline <= g.cycle {
		return nil, fmt.Errorf("gpu: snapshot launch deadline %d is not ahead of its cycle %d", ls.deadline, g.cycle)
	}
	// totalLeft is derived from the restored placement cursors.
	ls.totalLeft = 0
	for i, k := range batch {
		nb := ls.nextBlock[i]
		if nb < 0 || nb > k.Blocks {
			return nil, fmt.Errorf("gpu: snapshot places %d blocks of kernel %s, grid has %d", nb, k.Name, k.Blocks)
		}
		ls.totalLeft += k.Blocks - nb
	}
	return ls, nil
}

// resolverFor maps kernel-wide warp GIDs back to instruction streams
// through the launch's GID-offset table.
func resolverFor(ls *launch) smcore.ProgramResolver {
	return func(gid int64) (*program.Program, error) {
		for i := len(ls.kernels) - 1; i >= 0; i-- {
			if gid < ls.gidOffset[i] {
				continue
			}
			k := ls.kernels[i]
			local := gid - ls.gidOffset[i]
			b := local / int64(k.WarpsPerBlock)
			if b >= int64(k.Blocks) {
				break
			}
			return k.WarpProgram(int(b), int(local%int64(k.WarpsPerBlock))), nil
		}
		return nil, fmt.Errorf("gpu: snapshot warp GID %d maps to no in-flight kernel", gid)
	}
}

// ContinueKernels resumes a restored device: it drives the restored
// mid-kernel launch (if any) to completion without re-running the
// per-kernel resets — the restored scheduler state must survive — and
// then runs the remaining kernels of the sequence normally. ks must be
// the same kernel sequence passed to Restore. The combined
// pre-snapshot + resumed execution is byte-identical to an uninterrupted
// run of the same application (TestSnapshotResumeInert).
func (g *GPU) ContinueKernels(ks []*Kernel, maxCycles int64) error {
	// done counts kernels consumed so far. Between launches it equals the
	// stats entries (the RunKernels contract: one kernel per launch); a
	// resumed mid-flight batch knows its own end index, so concurrent
	// batches resume correctly too.
	done := len(g.run.Kernels)
	if p := g.pending; p != nil {
		g.pending = nil
		if err := g.runLaunch(p.ls); err != nil {
			return err
		}
		done = p.next
	}
	if done > len(ks) {
		return fmt.Errorf("gpu: device has completed %d kernels, the sequence holds %d", done, len(ks))
	}
	return g.RunKernels(ks[done:], maxCycles)
}

// resumedLaunch carries a restored mid-kernel launch from Restore to
// ContinueKernels: the launch itself plus the index of the first
// not-yet-started kernel in the application sequence.
type resumedLaunch struct {
	ls   *launch
	next int
}
