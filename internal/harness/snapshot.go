package harness

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/gpu"
)

// Cell snapshotting (docs/ROBUSTNESS.md): when Options.SnapshotDir is
// set, each cell periodically persists its full mid-kernel device state
// (gpu.WriteSnapshot) to <dir>/<app>__<config>.snap, and writes a final
// frame on the heartbeat that observes a cancellation — so when a
// SIGTERM'd, watchdog-killed, or timed-out sweep is restarted on the same
// directory, each interrupted cell continues from its last frame
// instead of re-simulating from cycle zero. Snapshot resume
// is exact: the restored run's statistics are byte-identical to an
// uninterrupted run (gpu's TestSnapshotResumeInert), so resuming never
// perturbs a study's numbers.
//
// Frames are written atomically (temp file + rename), so a kill -9 in
// the middle of a snapshot write leaves the previous intact frame, never
// a torn one. A cell that completes deletes its frame; a frame whose
// restore fails (version/config/workload drift, truncation) is deleted
// and the cell restarts fresh — a stale snapshot can slow a resume down
// but can never wedge or corrupt it.

// snapPath names a cell's snapshot file.
func snapPath(dir, app, cfgName string) string {
	return filepath.Join(dir, sanitize(app)+"__"+sanitize(cfgName)+".snap")
}

// cellSnapshotter is one cell's snapshot policy, driven from the gpu
// heartbeat hook. Not safe for concurrent use; each supervised cell
// owns its instance.
type cellSnapshotter struct {
	path     string
	interval int64        // ticked-cycle period, 0 = final frame only
	mon      *gpu.Monitor // canceled monitor => write a final frame
	sm       *sweepMetrics
	logf     func(format string, args ...any)

	nextTicked int64 // ticked-cycle count the next periodic frame is due at
	disabled   bool  // set after a write failure; snapshots stop, the run continues
}

// newCellSnapshotter builds the cell's snapshotter, nil when
// snapshotting is off.
func newCellSnapshotter(opt Options, app, cfgName string, mon *gpu.Monitor) *cellSnapshotter {
	if opt.SnapshotDir == "" {
		return nil
	}
	return &cellSnapshotter{
		path:     snapPath(opt.SnapshotDir, app, cfgName),
		interval: opt.SnapshotInterval,
		mon:      mon,
		sm:       opt.sm,
		logf:     opt.logf,
	}
}

// hook is the gpu heartbeat snapshot hook: write a frame on the cell's
// first heartbeat and then whenever the device has ticked through another
// interval of cycles, and always when the cell is being canceled (the
// final frame a restart resumes from). The interval counts the cycles on
// which some SM ticked, not the ones the device slept through: those cost
// the host next to nothing, so a frame per interval of them would cost
// more than re-simulating the stretch it saves. Write failures disable
// further snapshots instead of killing a healthy simulation — losing
// resumability is strictly better than losing the cell.
func (c *cellSnapshotter) hook(g *gpu.GPU) error {
	if c.disabled {
		return nil
	}
	ticked := g.Cycle() - g.FastForwardedCycles()
	if !c.mon.Canceled() && (c.interval <= 0 || ticked < c.nextTicked) {
		return nil
	}
	if err := c.write(g); err != nil {
		c.disabled = true
		c.logf("harness: snapshot %s failed at cycle %d (snapshots disabled for this cell): %v",
			c.path, g.Cycle(), err)
		return nil
	}
	c.nextTicked = ticked + c.interval
	c.sm.snapshotWrote()
	return nil
}

// write persists one frame atomically: the new frame replaces the old
// only after it is fully on disk.
func (c *cellSnapshotter) write(g *gpu.GPU) error {
	tmp := c.path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := g.WriteSnapshot(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, c.path)
}

// tryResume restores the device from the cell's snapshot file. Returns
// (false, nil) when no frame exists, (true, nil) on success, and an
// error when a frame exists but cannot be restored — the caller must
// then discard both the frame and the half-restored device.
func (c *cellSnapshotter) tryResume(g *gpu.GPU, ks []*gpu.Kernel) (bool, error) {
	f, err := os.Open(c.path)
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	defer f.Close()
	if err := g.Restore(f, ks); err != nil {
		return false, fmt.Errorf("restore %s: %w", c.path, err)
	}
	return true, nil
}

// discard removes the cell's frame: after success, when it does not
// restore, and after a deadline fault.
func (c *cellSnapshotter) discard() {
	if c == nil {
		return
	}
	os.Remove(c.path)
	os.Remove(c.path + ".tmp")
}
