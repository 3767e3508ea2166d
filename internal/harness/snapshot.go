package harness

import (
	"bytes"
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
// Frames are written atomically (temp file + fsync + rename), so a kill -9 in
// the middle of a snapshot write leaves the previous intact frame, never
// a torn one. The simulation goroutine only encodes: the file steps run on a
// writer goroutine, one frame in flight at a time, and every way out of the
// cell waits for it (settle). A cell that completes deletes its frame, and so
// does one that dies on a deadline (resumed, it re-faults at that cycle) or an
// audit fault (the frame may hold the corruption); a frame whose restore fails
// (version/config/workload drift, truncation) is deleted and the cell restarts
// fresh — a stale snapshot can slow a resume down but can never wedge or
// corrupt it.

// snapPath names a cell's snapshot file.
func snapPath(dir, app, cfgName string) string {
	return filepath.Join(dir, cellLabel(app, cfgName)+".snap")
}

// cellSnapshotter is one cell's snapshot policy, driven from the gpu
// heartbeat hook. Not safe for concurrent use; each supervised cell
// owns its instance.
type cellSnapshotter struct {
	path     string
	interval int64        // period in gpu.WorkCycles, 0 = final frame only
	mon      *gpu.Monitor // canceled monitor => write a final frame
	sm       *sweepMetrics
	logf     func(format string, args ...any)
	persist  func(path string, frame []byte) error // persistFrame, or a test's

	nextWork int64 // work-cycle count the next periodic frame is due at
	disabled bool  // set after a write failure; snapshots stop, the run continues

	// bufs are the encode targets, used in turn: the writer goroutine reads
	// the one handed off last until done carries its result (cycle is that
	// frame's, for the log line).
	bufs     [2]bytes.Buffer
	frames   int
	inFlight bool
	cycle    int64
	done     chan error
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
		persist:  persistFrame,
		done:     make(chan error, 1),
	}
}

// hook is the gpu heartbeat snapshot hook: encode a frame on the cell's
// first heartbeat and then whenever the device has done another interval of
// work, and always when the cell is being canceled (the final frame a
// restart resumes from), and hand it to a writer goroutine once the previous
// frame's has finished. The interval counts gpu.WorkCycles, not device
// cycles: a cycle most of the device slept through costs the host next to
// nothing, so a frame per interval of those would cost more than
// re-simulating the stretch it saves. Write failures disable further
// snapshots instead of killing a healthy simulation — losing resumability is
// strictly better than losing the cell.
func (c *cellSnapshotter) hook(g *gpu.GPU) error {
	work := g.WorkCycles()
	if c.disabled || !c.mon.Canceled() && (c.interval <= 0 || work < c.nextWork) {
		return nil
	}
	buf := &c.bufs[c.frames%2]
	buf.Reset()
	err := g.WriteSnapshot(buf)
	if c.settle(); c.disabled {
		return nil
	}
	if err != nil {
		c.fail(g.Cycle(), err)
		return nil
	}
	c.frames++
	c.nextWork = work + c.interval
	c.inFlight, c.cycle = true, g.Cycle()
	go func(frame []byte) { c.done <- c.persist(c.path, frame) }(buf.Bytes())
	return nil
}

// settle waits for the frame in flight, if any, and accounts for it. Called
// before the next hand-off, by discard, and when the cell ends however it
// ends: nothing is half-written, and nothing reappears, after it returns.
func (c *cellSnapshotter) settle() {
	if c == nil || !c.inFlight {
		return
	}
	c.inFlight = false
	if err := <-c.done; err != nil {
		c.fail(c.cycle, err)
		return
	}
	c.sm.snapWrites.Inc()
}

func (c *cellSnapshotter) fail(cycle int64, err error) {
	c.disabled = true
	c.logf("harness: snapshot %s failed at cycle %d (snapshots disabled for this cell): %v",
		c.path, cycle, err)
}

// persistFrame makes one frame durable: the new frame replaces the old only
// after it is fully on disk.
func persistFrame(path string, frame []byte) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.Write(frame)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
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
// restore, and after a deadline or an audit fault.
func (c *cellSnapshotter) discard() {
	if c == nil {
		return
	}
	c.settle()
	os.Remove(c.path)
	os.Remove(c.path + ".tmp")
}
