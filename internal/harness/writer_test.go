package harness

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/workloads"
)

// The frame writer (snapshot.go): the simulation goroutine encodes, a writer
// goroutine makes the frame durable, one frame in flight. These tests run
// under -race in CI's chaos step; docs/ROBUSTNESS.md names the seeded mutant
// each one kills.

// guardedDevice is the snapshotting core of superviseCell laid bare — a
// device, its monitor and its snapshotter hooked to its heartbeat — so a test
// can substitute the snapshotter's persist step.
func guardedDevice(t *testing.T, app workloads.App, opt Options, persist func(path string, frame []byte) error) (*gpu.GPU, *cellSnapshotter) {
	t.Helper()
	g, err := gpu.New(testCfg("base"))
	if err != nil {
		t.Fatal(err)
	}
	mon := &gpu.Monitor{}
	g.SetMonitor(mon)
	opt.sm = newSweepMetrics(opt.Metrics)
	snap := newCellSnapshotter(opt, app.Name, "base", mon)
	snap.persist = persist
	g.SetSnapshotHook(snap.hook)
	return g, snap
}

func dirEntries(t *testing.T, dir string) []string {
	t.Helper()
	left, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	return left
}

// A cell canceled while frames are in flight — an interval of one cycle of
// work hands a frame off at every heartbeat, each waiting for the one before —
// leaves its cancel frame whole on disk and nothing beside it by the time
// Run returns, and the restart resumes it to the uninterrupted run's
// statistics.
func TestFrameWriterCanceledInFlightResumes(t *testing.T) {
	cfg, app := testCfg("base"), testApp("inflight", 6_000)
	dir := t.TempDir()
	golden, fault := runOne(t, context.Background(), cfg, app, Options{})
	if fault != nil {
		t.Fatal(fault)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reg := metrics.New()
	writes := newSweepMetrics(reg).snapWrites
	go func() { // cancel once a few frames have landed, far from the cell's end
		for writes.Value() < 3 && ctx.Err() == nil {
			time.Sleep(50 * time.Microsecond)
		}
		cancel()
	}()
	opt := Options{SnapshotDir: dir, SnapshotInterval: 1, Metrics: reg, Logf: t.Logf}
	run, fault := runOne(t, ctx, cfg, app, opt)
	if run != nil || fault == nil || fault.Kind != FaultCanceled {
		t.Fatalf("run=%v fault=%v, want a canceled fault", run, fault)
	}
	snapFile := snapPath(dir, app.Name, cfg.Name)
	if left := dirEntries(t, dir); len(left) != 1 || left[0] != snapFile {
		t.Fatalf("canceled cell left %v, want its frame alone", left)
	}
	// The frame is the cancel frame, not the one that was in flight before it.
	g, err := gpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(snapFile)
	if err != nil {
		t.Fatal(err)
	}
	err = g.Restore(f, app.Kernels)
	f.Close()
	if err != nil || g.Cycle() != fault.Cycle {
		t.Fatalf("frame on disk restores to cycle %d (err %v), the cell was canceled at %d", g.Cycle(), err, fault.Cycle)
	}
	if handed, landed := fault.Cycle/1024, writes.Value(); landed != handed {
		t.Errorf("%d frames counted for %d heartbeats", landed, handed)
	}

	run, fault = runOne(t, context.Background(), cfg, app, opt)
	if fault != nil {
		t.Fatalf("resumed cell faulted: %v", fault)
	}
	if got, want := runStatsJSON(t, run), runStatsJSON(t, golden); got != want {
		t.Fatalf("resumed run diverged from uninterrupted run\nwant %s\ngot  %s", want, got)
	}
	if left := dirEntries(t, dir); len(left) != 0 {
		t.Errorf("completed cell left %v", left)
	}
}

// The bytes handed to the writer are its own until the next hand-off has
// waited for it: the heartbeat after encodes into the other buffer. Checked on
// the simulation goroutine, after each hook returns, against a copy taken
// after the hook before.
func TestFrameWriterEncodesBesideTheFrameInFlight(t *testing.T) {
	app := testApp("beside", 3_000)
	dir := t.TempDir()
	g, snap := guardedDevice(t, app, Options{SnapshotDir: dir, SnapshotInterval: 1}, persistFrame)
	var handed, copied []byte
	g.SetSnapshotHook(func(g *gpu.GPU) error {
		err := snap.hook(g)
		if !bytes.Equal(handed, copied) {
			t.Errorf("cycle %d: the previous frame's bytes changed under its writer", g.Cycle())
		}
		handed = snap.bufs[(snap.frames-1)%2].Bytes()
		copied = bytes.Clone(handed)
		return err
	})
	if err := g.RunKernels(app.Kernels, 0); err != nil {
		t.Fatal(err)
	}
	snap.discard()
	if snap.frames < 8 {
		t.Fatalf("only %d frames handed off", snap.frames)
	}
}

// discard waits for the frame in flight before it removes anything: a frame
// cannot reappear after it. The cell's one frame (first heartbeat, then an
// interval it never reaches) is held in the writer until the cell is done and
// discard has been called.
func TestFrameWriterDiscardWaits(t *testing.T) {
	app := testApp("held", 2_000)
	dir := t.TempDir()
	reg := metrics.New()
	release := make(chan struct{})
	g, snap := guardedDevice(t, app, Options{SnapshotDir: dir, SnapshotInterval: 1 << 40, Metrics: reg},
		func(path string, frame []byte) error {
			<-release
			return persistFrame(path, frame)
		})
	if err := g.RunKernels(app.Kernels, 0); err != nil {
		t.Fatal(err)
	}
	if !snap.inFlight {
		t.Fatal("no frame in flight at the end of the cell")
	}
	time.AfterFunc(20*time.Millisecond, func() { close(release) })
	snap.discard()
	snap.settle() // a discard that did not wait: let the writer land before looking
	if left := dirEntries(t, dir); len(left) != 0 {
		t.Errorf("after discard: %v", left)
	}
	if got := newSweepMetrics(reg).snapWrites.Value(); got != 1 {
		t.Errorf("sweep_snapshot_writes_total = %d, want the one frame", got)
	}
}

// A persist failure on frame N is seen at the next hand-off: logged once,
// naming frame N's cycle; N-1 frames counted, none after; the simulation
// unharmed.
func TestFrameWriterPersistFailure(t *testing.T) {
	const failOn = 3
	app := testApp("failing", 5_000)
	dir := t.TempDir()
	golden, fault := runOne(t, context.Background(), testCfg("base"), app, Options{})
	if fault != nil {
		t.Fatal(fault)
	}
	reg := metrics.New()
	var logs []string
	calls := 0 // writers run one at a time, each ordered before the next by settle
	g, snap := guardedDevice(t, app, Options{SnapshotDir: dir, SnapshotInterval: 1, Metrics: reg,
		Logf: func(f string, args ...any) { logs = append(logs, fmt.Sprintf(f, args...)) }},
		func(path string, frame []byte) error {
			if calls++; calls == failOn {
				return errors.New("injected persist failure")
			}
			return persistFrame(path, frame)
		})
	if err := g.RunKernels(app.Kernels, 0); err != nil {
		t.Fatal(err)
	}
	snap.discard()
	if calls != failOn {
		t.Errorf("%d frames handed to the writer, want none after the failed frame %d", calls, failOn)
	}
	if got := newSweepMetrics(reg).snapWrites.Value(); got != failOn-1 {
		t.Errorf("sweep_snapshot_writes_total = %d, want the %d that landed", got, failOn-1)
	}
	if len(logs) != 1 || !strings.Contains(logs[0], "snapshots disabled") ||
		!strings.Contains(logs[0], fmt.Sprintf("at cycle %d ", failOn*1024)) {
		t.Errorf("want one log line naming frame %d's cycle, got %q", failOn, logs)
	}
	if got, want := runStatsJSON(t, g.Run()), runStatsJSON(t, golden); got != want {
		t.Error("a failed frame perturbed the simulation")
	}
	if left := dirEntries(t, dir); len(left) != 0 {
		t.Errorf("after discard: %v", left)
	}
}

// A frame that cannot be renamed into place — the destination is a non-empty
// directory — leaves no temp file behind: at the moment the failure is
// logged, not just after the cell's final discard. One log line, no frame
// counted, the cell completes.
func TestFrameWriterRenameFailureLeavesNoTemp(t *testing.T) {
	cfg, app := testCfg("base"), testApp("blocked", 5_000)
	dir := t.TempDir()
	snapFile := snapPath(dir, app.Name, cfg.Name)
	if err := os.MkdirAll(filepath.Join(snapFile, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	var failures int
	run, fault := runOne(t, context.Background(), cfg, app, Options{
		SnapshotDir: dir, SnapshotInterval: 1, Metrics: reg,
		Logf: func(f string, args ...any) {
			if !strings.Contains(f, "snapshots disabled") {
				return // the directory also fails to restore, which is logged
			}
			failures++
			if _, err := os.Stat(snapFile + ".tmp"); !os.IsNotExist(err) {
				t.Errorf("temp frame left behind by the failed rename (stat: %v)", err)
			}
		},
	})
	if fault != nil || run == nil {
		t.Fatalf("run=%v fault=%v", run, fault)
	}
	if failures != 1 {
		t.Errorf("%d failure lines, want 1", failures)
	}
	if got := newSweepMetrics(reg).snapWrites.Value(); got != 0 {
		t.Errorf("sweep_snapshot_writes_total = %d after every rename failed", got)
	}
}

// No goroutine outlives harness.Run: writers, supervisors and workers are
// all gone (the supervisor is stopped, not joined, so give it a moment).
func TestFrameWriterNoGoroutineOutlivesRun(t *testing.T) {
	before := runtime.NumGoroutine()
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // one pass that ends on cancel frames, one that completes
	for _, c := range []context.Context{ctx, context.Background()} {
		_, err := Run(c, []config.GPU{testCfg("cfgA"), testCfg("cfgB")}, nil,
			[]workloads.App{testApp("app0", 3_000), testApp("app1", 3_000)},
			Options{Workers: 2, SnapshotDir: dir, SnapshotInterval: 1, WatchdogInterval: time.Second})
		if (err != nil) != (c == ctx) {
			t.Fatalf("Run: %v", err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before Run, %d after:\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
}
