package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/program"
	"repro/internal/snapshot"
	"repro/internal/workloads"
)

func runStatsJSON(t *testing.T, r any) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// A canceled cell writes a final snapshot frame on its last heartbeat,
// and a restarted run on the same directory continues mid-kernel to the
// exact statistics an uninterrupted run produces. This is the SIGTERM
// drain path end to end: signal → context cancel → final frame →
// restart → resume. The context is canceled as the cell places its warps,
// so the frame lands on one of the first heartbeats; the app only has to
// outlast that.
func TestCanceledCellResumesFromFinalSnapshot(t *testing.T) {
	cfg, app := testCfg("base"), testApp("snap", 2_000)
	dir := t.TempDir()

	golden, fault := runOne(t, context.Background(), cfg, app, Options{})
	if fault != nil {
		t.Fatal(fault)
	}
	want := runStatsJSON(t, golden)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reg := metrics.New()
	run, fault := runOne(t, ctx, cfg, atPlacement(app, func(int, int) { cancel() }), Options{
		SnapshotDir: dir,
		Metrics:     reg,
		Logf:        t.Logf,
	})
	if run != nil || fault == nil || fault.Kind != FaultCanceled {
		t.Fatalf("run=%v fault=%v, want a canceled fault", run, fault)
	}
	snapFile := snapPath(dir, app.Name, cfg.Name)
	if _, err := os.Stat(snapFile); err != nil {
		t.Fatalf("canceled cell left no final snapshot frame: %v", err)
	}

	run, fault = runOne(t, context.Background(), cfg, app, Options{
		SnapshotDir: dir,
		Metrics:     reg,
		Logf:        t.Logf,
	})
	if fault != nil {
		t.Fatalf("resumed cell faulted: %v", fault)
	}
	if got := runStatsJSON(t, run); got != want {
		t.Fatalf("resumed run diverged from uninterrupted run\nwant %s\ngot  %s", want, got)
	}
	m := newSweepMetrics(reg)
	if got := m.snapResumes.Value(); got != 1 {
		t.Errorf("sweep_snapshot_resumes_total = %d, want 1", got)
	}
	if m.snapWrites.Value() == 0 {
		t.Error("sweep_snapshot_writes_total = 0 after a final frame was written")
	}
	if _, err := os.Stat(snapFile); !os.IsNotExist(err) {
		t.Errorf("completed cell did not discard its snapshot frame: %v", err)
	}
}

// How a run is executed and checked is not part of the machine a frame
// belongs to: a cell canceled at a random heartbeat under fast-forward with
// the auditor armed resumes with fast-forward off and no auditor — and the
// reverse — from that one frame, to the uninterrupted run's statistics. The
// cell sleeps on DRAM most of the time, so the two modes walk very different
// host paths over the same simulated cycles.
func TestResumeAcrossRunModes(t *testing.T) {
	b := program.NewBuilder()
	b.Loop(250, func(lb *program.Builder) {
		lb.LDG(4, 1, isa.MemTrait{Pattern: isa.PatRandom, Footprint: 1 << 26, Divergence: 4})
		lb.FMA(5, 4, 4, 5)
		lb.FMA(6, 5, 4, 6)
	})
	chain := b.MustBuild()
	app := workloads.App{Name: "modes", Suite: "test", Kernels: []*gpu.Kernel{{
		Name: "chain", Blocks: 3, WarpsPerBlock: 3, RegsPerThread: 8,
		WarpProgram: func(b, w int) *program.Program { return chain }}}}
	cfg := testCfg("base").WithScheduler(config.SchedRBA)

	golden, fault := runOne(t, context.Background(), cfg, app, Options{})
	if fault != nil {
		t.Fatal(fault)
	}
	want := runStatsJSON(t, golden)
	beats := golden.Cycles / 1024
	if beats < 40 {
		t.Fatalf("the cell has %d heartbeats; too short to cut at a random one", beats)
	}

	rng := rand.New(rand.NewSource(22))
	for _, tc := range []struct {
		name          string
		write, resume config.GPU
	}{
		{"fast-forward+audit -> no-fast-forward", cfg.WithAudit(1), cfg.WithNoFastForward()},
		{"no-fast-forward -> fast-forward+audit", cfg.WithNoFastForward(), cfg.WithAudit(1)},
	} {
		dir := t.TempDir()
		reg := metrics.New()
		m := newSweepMetrics(reg)
		cut := 2 + rng.Int63n(beats/2) // frames before the cancel: a frame per heartbeat that did any work
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			for m.snapWrites.Value() < cut && ctx.Err() == nil {
				time.Sleep(20 * time.Microsecond)
			}
			cancel()
		}()
		opt := Options{SnapshotDir: dir, SnapshotInterval: 1, Metrics: reg, Logf: t.Logf}
		run, fault := runOne(t, ctx, tc.write, app, opt)
		cancel()
		if run != nil || fault == nil || fault.Kind != FaultCanceled {
			t.Fatalf("%s: run=%v fault=%v, want a canceled fault", tc.name, run, fault)
		}
		if fault.Cycle == 0 || fault.Cycle >= golden.Cycles {
			t.Fatalf("%s: canceled at cycle %d of %d, not mid-run", tc.name, fault.Cycle, golden.Cycles)
		}
		run, fault = runOne(t, context.Background(), tc.resume, app, opt)
		if fault != nil {
			t.Fatalf("%s: resumed cell faulted: %v", tc.name, fault)
		}
		if got := m.snapResumes.Value(); got != 1 {
			t.Errorf("%s: sweep_snapshot_resumes_total = %d, want 1 (the frame was refused?)", tc.name, got)
		}
		if got := runStatsJSON(t, run); got != want {
			t.Errorf("%s: cut at cycle %d, the resumed run diverged from the uninterrupted one\nwant %s\ngot  %s", tc.name, fault.Cycle, want, got)
		}
	}
}

// Periodic snapshots are written during a healthy run and discarded on
// completion, leaving the snapshot directory empty. The interval counts cycles
// of work (gpu.WorkCycles). The dense cell has eight warps on the four
// sub-cores of its one SM, all awake nearly every cycle: it writes what an
// interval of device cycles would. The sleepy cell is two warps, each one
// dependent-load chain: at most two of the four sub-cores are ever awake, and
// those sleep on DRAM nine cycles in ten, so after its first-heartbeat frame
// it owes one frame per interval of a twentieth of its simulated cycles.
func TestPeriodicSnapshotsWrittenAndDiscarded(t *testing.T) {
	b := program.NewBuilder()
	b.Loop(400, func(lb *program.Builder) {
		lb.LDG(4, 1, isa.MemTrait{Pattern: isa.PatRandom, Footprint: 1 << 26, Divergence: 4})
		lb.FMA(5, 4, 4, 5)
	})
	chain := b.MustBuild()
	sleepy := workloads.App{Name: "sleepy", Suite: "test", Kernels: []*gpu.Kernel{{
		Name: "chain", Blocks: 1, WarpsPerBlock: 2, RegsPerThread: 8,
		WarpProgram: func(b, w int) *program.Program { return chain }}}}
	const interval = 2048
	for _, tc := range []struct {
		app      workloads.App
		min, max func(cycles int64) int64 // frames, for a run of that many cycles
	}{
		// Paced by ticked device cycles this cell wrote 156 frames, one per
		// interval of its 320,026 cycles: the same, give or take one.
		{testApp("periodic", 20_000),
			func(c int64) int64 { return c/interval - 1 },
			func(c int64) int64 { return c/interval + 1 }},
		{sleepy,
			func(int64) int64 { return 1 },
			func(c int64) int64 { return 1 + c/20/interval }},
	} {
		dir := t.TempDir()
		reg := metrics.New()
		run, fault := runOne(t, context.Background(), testCfg("base"), tc.app, Options{
			SnapshotDir:      dir,
			SnapshotInterval: interval,
			Metrics:          reg,
		})
		if fault != nil || run == nil {
			t.Fatalf("%s: run=%v fault=%v", tc.app.Name, run, fault)
		}
		frames := newSweepMetrics(reg).snapWrites.Value()
		if least, most := tc.min(run.Cycles), tc.max(run.Cycles); frames < least || frames > most {
			t.Errorf("%s: %d periodic frames over %d cycles, want %d..%d", tc.app.Name, frames, run.Cycles, least, most)
		}
		if left := dirEntries(t, dir); len(left) != 0 {
			t.Errorf("%s: snapshot dir not cleaned after success: %v", tc.app.Name, left)
		}
	}
}

// An unreadable snapshot frame must not wedge the cell: the harness
// discards it, logs the fallback, and re-simulates from cycle zero with
// identical results.
func TestCorruptSnapshotFallsBackFresh(t *testing.T) {
	cfg, app := testCfg("base"), testApp("fallback", 5_000)
	dir := t.TempDir()

	golden, fault := runOne(t, context.Background(), cfg, app, Options{})
	if fault != nil {
		t.Fatal(fault)
	}

	if err := os.WriteFile(snapPath(dir, app.Name, cfg.Name), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	var logs []string
	run, fault := runOne(t, context.Background(), cfg, app, Options{
		SnapshotDir: dir,
		Logf:        func(f string, args ...any) { logs = append(logs, fmt.Sprintf(f, args...)) },
	})
	if fault != nil {
		t.Fatalf("fresh fallback faulted: %v", fault)
	}
	if got, want := runStatsJSON(t, run), runStatsJSON(t, golden); got != want {
		t.Fatal("fresh fallback diverged from a plain run")
	}
	if !strings.Contains(strings.Join(logs, "\n"), "snapshot unusable") {
		t.Errorf("fallback was not logged: %q", logs)
	}
}

// smallCfg is testCfg on a device small enough that its first-heartbeat
// frame is about a kilobyte (16 warp slots, 1 KB caches), so that trying
// every one-bit change of it takes well under a second.
func smallCfg(name string) config.GPU {
	g := testCfg(name)
	g.MaxWarpsPerSM, g.MaxBlocksPerSM = 16, 4
	g.L1KBPerSM = 1
	g.L2KB, g.L2Assoc = 1, 8
	return g
}

// writeChangedFrame leaves in dir the frame a cell of app labelled cfgName
// resumes from: the one its device writes at the first heartbeat, with one
// bit of the payload changed — the first change for which pick holds,
// trying bit 0 of every byte in payload order, then bit 1, and so on. pick
// sees the change restored onto a device armed with WithAudit(1), and the
// error Restore returned.
func writeChangedFrame(t *testing.T, dir string, cfg config.GPU, cfgName string, app workloads.App, pick func(*gpu.GPU, error) bool) {
	t.Helper()
	g, err := gpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var frame bytes.Buffer
	stop := errors.New("stopped at the first heartbeat")
	g.SetSnapshotHook(func(g *gpu.GPU) error {
		if err := g.WriteSnapshot(&frame); err != nil {
			return err
		}
		return stop
	})
	if err := g.RunKernels(app.Kernels, 0); !errors.Is(err, stop) {
		t.Fatalf("the device ran to %v, want it stopped after its first frame", err)
	}
	payload, err := snapshot.Payload(frame.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for i := range len(payload) * 8 {
		changed := slices.Clone(payload)
		changed[i%len(payload)] ^= 1 << (i / len(payload))
		bad := snapshot.Frame(changed)
		g, err := gpu.New(cfg.WithAudit(1))
		if err != nil {
			t.Fatal(err)
		}
		if !pick(g, g.Restore(bytes.NewReader(bad), app.Kernels)) {
			continue
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(snapPath(dir, app.Name, cfgName), bad, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Fatal("no one-bit change of the frame is the one wanted")
}

// writeCorruptFrame leaves in dir a frame that restores, every law intact,
// and faults at the next heartbeat under the auditor: the state is wrong
// and nothing has noticed. Of chainApp's frame, such a change sends a
// writeback-heap entry to a sub-core other than its warp's.
func writeCorruptFrame(t *testing.T, dir string, cfg config.GPU, cfgName string, app workloads.App) {
	t.Helper()
	writeChangedFrame(t, dir, cfg, cfgName, app, func(g *gpu.GPU, err error) bool {
		if err != nil {
			return false
		}
		g.SetSnapshotHook(func(*gpu.GPU) error { return errors.New("past the next heartbeat") })
		var ae *gpu.AuditError
		return errors.As(g.ContinueKernels(app.Kernels, 0), &ae)
	})
}

// A cell that resumes a corrupt frame with the auditor armed faults as a
// structured FaultAudit carrying the *gpu.AuditError, not as silent bad
// statistics.
func TestCorruptFrameBecomesAuditFault(t *testing.T) {
	cfg, app := smallCfg("base"), chainApp("corrupt", 20_000)
	dir := t.TempDir()
	writeCorruptFrame(t, dir, cfg, cfg.Name, app)
	reg := metrics.New()
	run, fault := runOne(t, context.Background(), cfg.WithAudit(1), app, Options{
		SnapshotDir: dir,
		Metrics:     reg,
		Logf:        t.Logf,
	})
	if run != nil || fault == nil {
		t.Fatalf("run=%v fault=%v, want an audit fault", run, fault)
	}
	if fault.Kind != FaultAudit {
		t.Fatalf("fault kind = %v, want audit (%v)", fault.Kind, fault)
	}
	var ae *gpu.AuditError
	if !errors.As(fault, &ae) {
		t.Fatalf("audit fault must unwrap to *gpu.AuditError, got %v", fault)
	}
	if len(ae.Violations) == 0 || ae.Cycle == 0 {
		t.Fatalf("audit error lost its evidence: %+v", ae)
	}
	if fault.Cycle != ae.Cycle {
		t.Errorf("fault cycle %d != audit cycle %d", fault.Cycle, ae.Cycle)
	}
	m := newSweepMetrics(reg)
	if got := m.faults[FaultAudit].Value(); got != 1 {
		t.Errorf("sweep_faults_total{kind=audit} = %d, want 1", got)
	}
	if got := m.snapResumes.Value(); got != 1 {
		t.Errorf("sweep_snapshot_resumes_total = %d, want 1: the fault must come from the frame", got)
	}
}

// An audit fault discards the cell's frame, which may hold the corruption:
// the re-run starts fresh and completes to an undisturbed run's statistics,
// and no frame is left to resume the corruption into a checkpoint.
func TestAuditFaultDiscardsFrame(t *testing.T) {
	cfg, app := smallCfg("base"), chainApp("corrupt", 5_000)
	golden, fault := runOne(t, context.Background(), cfg, app, Options{})
	if fault != nil {
		t.Fatal(fault)
	}
	dir := t.TempDir()
	writeCorruptFrame(t, dir, cfg, cfg.Name, app)
	opt := Options{SnapshotDir: dir, Logf: t.Logf}
	if _, fault := runOne(t, context.Background(), cfg.WithAudit(1), app, opt); fault == nil || fault.Kind != FaultAudit {
		t.Fatalf("first pass: fault %v, want an audit fault", fault)
	}
	run, fault := runOne(t, context.Background(), cfg.WithAudit(1), app, opt)
	if fault != nil {
		t.Fatalf("second pass resumed the corruption: %v", fault)
	}
	if runStatsJSON(t, run) != runStatsJSON(t, golden) {
		t.Error("second pass diverged from an undisturbed run")
	}
	if left := dirEntries(t, dir); len(left) != 0 {
		t.Errorf("frames left after the second pass: %v", left)
	}
}

// A frame that breaks a law is refused on restore and discarded, with or
// without the auditor: the cell starts fresh and completes to its healthy
// twin's record. The frame's change leaves a CPI-stack counter negative;
// counters only grow, so a cell that ran on from it would finish with that
// counter still wrong.
func TestLawBreakingFrameIsRefused(t *testing.T) {
	cfg, app := smallCfg("base"), testApp("corrupt", 5_000)
	golden, fault := runOne(t, context.Background(), cfg, app, Options{})
	if fault != nil {
		t.Fatal(fault)
	}
	dir := t.TempDir()
	writeChangedFrame(t, dir, cfg, cfg.Name, app, func(g *gpu.GPU, _ error) bool {
		return slices.ContainsFunc(g.AuditCheck(), func(v audit.Violation) bool {
			return v.Rule == "cpi" && strings.Contains(v.Detail, "negative")
		})
	})
	var logs []string
	reg := metrics.New()
	run, fault := runOne(t, context.Background(), cfg, app, Options{
		SnapshotDir: dir,
		Metrics:     reg,
		Logf:        func(f string, args ...any) { logs = append(logs, fmt.Sprintf(f, args...)) },
	})
	if fault != nil {
		t.Fatalf("the cell faulted: %v", fault)
	}
	if runStatsJSON(t, run) != runStatsJSON(t, golden) {
		t.Error("the cell's record differs from its healthy twin's")
	}
	if !strings.Contains(strings.Join(logs, "\n"), "snapshot unusable") {
		t.Errorf("the refusal was not logged: %q", logs)
	}
	if got := newSweepMetrics(reg).snapResumes.Value(); got != 0 {
		t.Errorf("sweep_snapshot_resumes_total = %d, want 0", got)
	}
	if left := dirEntries(t, dir); len(left) != 0 {
		t.Errorf("frames left: %v", left)
	}
}

// A sweep with snapshots armed behaves identically to one without: a cell
// that resumes a corrupt frame classifies as audit and a hung one as
// watchdog, the healthy cells complete, and a re-run of the healthy twins
// heals every fault — restarting the audited cell fresh, and resuming each
// hung cell's cancel frame.
func TestChaosSweepWithSnapshots(t *testing.T) {
	// The watchdog is a wall-clock deadline on forward progress, and these
	// cells fsync a frame every 2048 cycles: 4 workers at 50 ms on a loaded
	// 2-core box once starved a healthy cell past it. Two workers and 250 ms
	// (a second under the race detector's slowdown) leave healthy cells
	// room; the hung cells' heartbeat stays at cycle 0 for four intervals,
	// so they trip the watchdog at any interval.
	wd := 250 * time.Millisecond
	if raceEnabled {
		wd = time.Second
	}
	cfgs := []config.GPU{smallCfg("cfgA").WithAudit(1), smallCfg("cfgB").WithAudit(1)}
	twins := []workloads.App{chainApp("app0", 20_000), testApp("app1", 20_000)}
	apps := []workloads.App{twins[0], hangApp("app1", 20_000, 4*wd)}
	dir := t.TempDir()
	snaps := filepath.Join(dir, "snaps")
	writeCorruptFrame(t, snaps, smallCfg("cfgA"), "cfgA", twins[0])
	reg := metrics.New()
	opt := Options{
		Workers:          2,
		WatchdogInterval: wd,
		SnapshotDir:      snaps,
		SnapshotInterval: 2048,
		CheckpointPath:   filepath.Join(dir, "chaos.ckpt"),
		Metrics:          reg,
		Logf:             t.Logf,
	}

	res, err := Run(context.Background(), cfgs, nil, apps, opt)
	if err != nil {
		t.Fatal(err)
	}
	checkFaults(t, res, map[string]FaultKind{
		"app0/cfgA": FaultAudit,
		"app1/cfgA": FaultWatchdog, "app1/cfgB": FaultWatchdog,
	})
	// The audited cell's frame is gone; each hung cell left its cancel frame.
	want := []string{snapPath(snaps, "app1", "cfgA"), snapPath(snaps, "app1", "cfgB")}
	if left := dirEntries(t, snaps); !slices.Equal(left, want) {
		t.Errorf("frames after the first pass: %v, want %v", left, want)
	}

	// Second pass: the healthy twins under the same names, and the whole
	// matrix completes.
	res2, err := Run(context.Background(), cfgs, nil, twins, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Complete() {
		t.Fatalf("resume left faults: %v", res2.Errs.Err())
	}
	if res2.Resumed != 1 || res2.Executed != 3 {
		t.Errorf("resume: resumed %d, executed %d; want 1, 3", res2.Resumed, res2.Executed)
	}
	// The corrupt frame and both cancel frames were resumed.
	if got := newSweepMetrics(reg).snapResumes.Value(); got != 3 {
		t.Errorf("sweep_snapshot_resumes_total = %d, want 3", got)
	}
	// Completed cells discard their frames; nothing lingers.
	if left := dirEntries(t, snaps); len(left) != 0 {
		t.Errorf("snapshot frames left after a complete sweep: %v", left)
	}
}
