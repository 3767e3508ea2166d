package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/program"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// testApp builds a small deterministic FMA workload (milliseconds on the
// one-SM test config).
func testApp(name string, iters int) workloads.App {
	p := workloads.Profile{
		Name: name, Blocks: 2, WarpsPerBlock: 4, RegsPerThread: 8,
		Iters: iters, ILP: 2, FMAs: 4,
	}
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return workloads.App{Name: name, Suite: "test", Kernels: []*gpu.Kernel{p.Kernel()}}
}

func testCfg(name string) config.GPU {
	g := config.VoltaV100()
	g.NumSMs = 1
	g.Name = name
	return g
}

// runOne runs one cell — Run on a 1×1 matrix, labelled cfg.Name — and
// returns that cell's run or its fault.
func runOne(t *testing.T, ctx context.Context, cfg config.GPU, app workloads.App, opt Options) (*stats.Run, *SimFault) {
	t.Helper()
	res, err := Run(ctx, []config.GPU{cfg}, nil, []workloads.App{app}, opt)
	if res == nil {
		t.Fatalf("Run refused the cell: %v", err)
	}
	if f := res.Errs[Cell{}]; f != nil {
		return nil, f.(*SimFault)
	}
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res.Runs[0][0], nil
}

// atPlacement returns app with fn called as each of its warps is placed,
// before the warp's program is built: a way into a running cell through
// what it is made of.
func atPlacement(app workloads.App, fn func(block, warp int)) workloads.App {
	k := *app.Kernels[0]
	prog := k.WarpProgram
	k.WarpProgram = func(b, w int) *program.Program {
		fn(b, w)
		return prog(b, w)
	}
	app.Kernels = []*gpu.Kernel{&k}
	return app
}

// hangApp is testApp with its first warp's placement held for hold: the
// simulation makes no progress and its heartbeat stays at cycle 0, which is
// what a livelocked cell looks like to the watchdog.
func hangApp(name string, iters int, hold time.Duration) workloads.App {
	return atPlacement(testApp(name, iters), func(b, w int) {
		if b == 0 && w == 0 {
			time.Sleep(hold)
		}
	})
}

// One cell is a 1×1 sweep, so every option means what it means for many:
// the completed cell is checkpointed, and the diagnostics directory exists.
func TestRunOneCell(t *testing.T) {
	dir := t.TempDir()
	opt := Options{
		Timeout:          time.Minute,
		WatchdogInterval: time.Second,
		CheckpointPath:   filepath.Join(dir, "one.ckpt"),
		DiagDir:          filepath.Join(dir, "diag"),
	}
	res, err := Run(context.Background(), []config.GPU{testCfg("base")}, nil, []workloads.App{testApp("ok", 200)}, opt)
	if err != nil || !res.Complete() || res.Executed != 1 {
		t.Fatalf("Run: %v (result %+v), want one completed cell", err, res)
	}
	if run := res.Runs[0][0]; run == nil || run.Cycles == 0 {
		t.Fatalf("run = %+v, want non-empty statistics", run)
	}
	if ckpt, err := os.ReadFile(opt.CheckpointPath); err != nil || bytes.Count(ckpt, []byte("\n")) != 1 {
		t.Errorf("checkpoint %q (%v), want the cell's one record", ckpt, err)
	}
	if st, err := os.Stat(opt.DiagDir); err != nil || !st.IsDir() {
		t.Errorf("diagnostics dir not created: %v", err)
	}
}

// A tracer records one device: Run attaches it to its one cell, and refuses
// it for more than one before anything runs or is created.
func TestRunRefusesTracerForManyCells(t *testing.T) {
	cfg := testCfg("base")
	topt := trace.OptionsFor(&cfg, 0)
	topt.SamplePeriod = 32
	tr := trace.New(topt)
	dir := t.TempDir()
	opt := Options{
		Tracer:         tr,
		Workers:        2,
		SnapshotDir:    filepath.Join(dir, "snaps"),
		CheckpointPath: filepath.Join(dir, "c.jsonl"),
		DiagDir:        filepath.Join(dir, "diag"),
	}
	res, err := Run(context.Background(), []config.GPU{cfg, testCfg("other")}, nil, []workloads.App{testApp("a", 300)}, opt)
	if err == nil || !strings.Contains(err.Error(), "tracer") || res != nil {
		t.Errorf("Run: %v (result %v), want the refusal and no result", err, res)
	}
	if left := dirEntries(t, dir); len(left) != 0 {
		t.Errorf("the refused sweep left %v", left)
	}
	if c := tr.Counters(); c != nil && c.Samples() != 0 {
		t.Errorf("the refused sweep traced %d samples", c.Samples())
	}

	if _, fault := runOne(t, context.Background(), cfg, testApp("a", 300), Options{Tracer: tr}); fault != nil {
		t.Fatal(fault)
	}
	if c := tr.Counters(); c == nil || c.Samples() == 0 {
		t.Error("the one cell's device was not traced")
	}
}

func TestRunArgValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := Run(ctx, nil, nil, []workloads.App{testApp("a", 10)}, Options{}); err == nil {
		t.Error("empty config list must error")
	}
	if _, err := Run(ctx, []config.GPU{testCfg("c")}, []string{"a", "b"}, []workloads.App{testApp("a", 10)}, Options{}); err == nil {
		t.Error("mismatched names length must error")
	}
}

// Two cells under one label would share a checkpoint key, a snapshot frame
// (and its .tmp) and a fault-dump name: refused before any cell starts, with
// both positions named. Labels are compared as the files are named.
func TestRunRefusesDuplicateLabels(t *testing.T) {
	ctx := context.Background()
	rba := testCfg("rba").WithScheduler(config.SchedRBA)
	for _, tc := range []struct {
		name  string
		cfgs  []config.GPU
		names []string
		apps  []workloads.App
		want  string
	}{
		{"config tokens", []config.GPU{testCfg("gto"), rba, rba}, []string{"gto", "rba", "rba"},
			[]workloads.App{testApp("a", 10)}, `(app 0 "a", config 1 "rba") and (app 0 "a", config 2 "rba")`},
		{"config names", []config.GPU{rba, rba}, nil,
			[]workloads.App{testApp("a", 10)}, "config 0 " + `"` + rba.Name + `"` + ") and (app 0"},
		{"sanitized", []config.GPU{testCfg("x"), rba}, []string{"a/b", "a:b"},
			[]workloads.App{testApp("a", 10)}, `config 0 "a/b") and (app 0 "a", config 1 "a:b") share the label a__a-b`},
		{"apps", []config.GPU{rba}, nil,
			[]workloads.App{testApp("a", 10), testApp("b", 10), testApp("a", 20)}, `(app 0 "a", config 0 "rba+RBA") and (app 2 "a", config 0 "rba+RBA")`},
		// What collides is the pair, which is what names the files.
		{"pair", []config.GPU{testCfg("x"), rba}, []string{"c", "b__c"},
			[]workloads.App{testApp("a__b", 10), testApp("a", 10)}, `(app 0 "a__b", config 0 "c") and (app 1 "a", config 1 "b__c")`},
	} {
		dir := t.TempDir()
		res, err := Run(ctx, tc.cfgs, tc.names, tc.apps, Options{
			SnapshotDir: filepath.Join(dir, "snaps"), CheckpointPath: filepath.Join(dir, "c.jsonl")})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %s", tc.name, err, tc.want)
		}
		if res != nil {
			t.Errorf("%s: cells ran (executed %d) before the refusal", tc.name, res.Executed)
		}
		if left := dirEntries(t, dir); len(left) != 0 {
			t.Errorf("%s: the refused sweep left %v", tc.name, left)
		}
	}
}

// The wall-clock timeout kills a cell that simulates too long, and the
// fault records the kind and the budget.
func TestTimeoutKill(t *testing.T) {
	run, fault := runOne(t, context.Background(), testCfg("base"), testApp("slow", 2_000_000), Options{
		Timeout: 5 * time.Millisecond,
	})
	if run != nil || fault == nil {
		t.Fatalf("run=%v fault=%v, want a timeout fault", run, fault)
	}
	if fault.Kind != FaultTimeout {
		t.Fatalf("fault kind = %v, want timeout (%v)", fault.Kind, fault)
	}
	if fault.Cycle == 0 {
		t.Error("timeout fault lost the last heartbeat cycle")
	}
	if !strings.Contains(fault.Error(), "wall clock") {
		t.Errorf("fault text %q does not explain the wall-clock kill", fault.Error())
	}
}

// The watchdog kills a cell whose heartbeat stops advancing — its first
// warp's placement blocks for four watchdog intervals — classifying it
// separately from a timeout. The device sees the cancellation at its first
// heartbeat once the placement returns.
func TestWatchdogKill(t *testing.T) {
	const wd = 20 * time.Millisecond
	run, fault := runOne(t, context.Background(), testCfg("base"), hangApp("hung", 100, 4*wd), Options{
		WatchdogInterval: wd,
	})
	if run != nil || fault == nil {
		t.Fatalf("run=%v fault=%v, want a watchdog fault", run, fault)
	}
	if fault.Kind != FaultWatchdog {
		t.Fatalf("fault kind = %v, want watchdog (%v)", fault.Kind, fault)
	}
	var ce *gpu.CancelError
	if !errors.As(fault, &ce) || fault.Cycle != 1024 {
		t.Errorf("fault %v, want the gpu's cancellation at its first heartbeat", fault)
	}
	if !strings.Contains(fault.Error(), "no forward progress") || !strings.Contains(fault.Error(), "heartbeat stuck at cycle 0") {
		t.Errorf("fault text %q does not explain the stall", fault.Error())
	}
}

// A canceled context stops the cell and classifies the fault as
// cancellation, not an error of the cell's own. The context dies as the cell
// places its warps, so the cell is running when it does.
func TestContextCancelKill(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	app := atPlacement(testApp("canceled", 500_000), func(int, int) { cancel() })
	run, fault := runOne(t, ctx, testCfg("base"), app, Options{})
	if run != nil || fault == nil {
		t.Fatalf("run=%v fault=%v, want a cancel fault", run, fault)
	}
	if fault.Kind != FaultCanceled {
		t.Fatalf("fault kind = %v (%v), want canceled", fault.Kind, fault)
	}
}

// A cell that outruns the simulated-cycle cap dies as a deadline fault at
// the cap — not at a multiple of it — and unwraps to the typed error. Its
// periodic frame carries that deadline, so it is discarded: a re-run
// under a raised cap starts fresh and completes.
func TestDeadlineFault(t *testing.T) {
	cfg, app := testCfg("base"), testApp("capped", 2000)
	ref, fault := runOne(t, context.Background(), cfg, app, Options{})
	if fault != nil {
		t.Fatal(fault)
	}
	const limit = 4096
	if ref.Cycles <= limit {
		t.Fatalf("reference run is %d cycles; the test needs a cell longer than the %d-cycle cap", ref.Cycles, limit)
	}
	opt := Options{MaxCycles: limit, SnapshotDir: t.TempDir(), SnapshotInterval: 1024}

	_, fault = runOne(t, context.Background(), cfg, app, opt)
	if fault == nil || fault.Kind != FaultDeadline {
		t.Fatalf("fault = %v, want a deadline fault", fault)
	}
	var cle *gpu.CycleLimitError
	if !errors.As(fault, &cle) {
		t.Fatalf("deadline fault must unwrap to *gpu.CycleLimitError, got %v", fault)
	}
	if cle.MaxCycles != limit || fault.Cycle > limit {
		t.Errorf("cell died under a %d-cycle cap at heartbeat %d, want the %d-cycle cap", cle.MaxCycles, fault.Cycle, limit)
	}
	if _, err := os.Stat(snapPath(opt.SnapshotDir, app.Name, cfg.Name)); !os.IsNotExist(err) {
		t.Errorf("deadline-faulted cell kept a frame that can only re-fault: %v", err)
	}

	opt.MaxCycles = 0
	run, fault := runOne(t, context.Background(), cfg, app, opt)
	if fault != nil {
		t.Fatalf("re-run under the default cap faulted: %v", fault)
	}
	if run.Cycles != ref.Cycles {
		t.Errorf("re-run = %d cycles, want %d (same simulation)", run.Cycles, ref.Cycles)
	}
}

func TestGuard(t *testing.T) {
	if err := Guard("ok", func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("boom")
	if err := Guard("err", func() error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("Guard rewrote an ordinary error: %v", err)
	}
	err := Guard("panics", func() error { panic("invariant violated") })
	var f *SimFault
	if !errors.As(err, &f) {
		t.Fatalf("want *SimFault, got %T (%v)", err, err)
	}
	if f.Kind != FaultPanic || f.App != "panics" || len(f.Stack) == 0 {
		t.Errorf("fault = %+v, want a named panic fault with a stack", f)
	}
}

func TestCellErrorsErr(t *testing.T) {
	if err := (CellErrors{}).Err(); err != nil {
		t.Fatalf("empty CellErrors must aggregate to nil, got %v", err)
	}
	e := CellErrors{}
	for i := 0; i < 5; i++ {
		e[Cell{App: i, Cfg: 0}] = fmt.Errorf("fault %d", i)
	}
	msg := e.Err().Error()
	if !strings.Contains(msg, "5 sweep cell(s)") || !strings.Contains(msg, "and 2 more") {
		t.Errorf("aggregate message %q missing count or truncation note", msg)
	}
	if !strings.Contains(msg, "fault 0") {
		t.Errorf("aggregate message %q lost the first fault", msg)
	}
}

// chaosSweep is the matrix the chaos tests break, each cell through what it
// is made of. cfgB has half cfgA's shared memory. app0 panics as its last
// block is placed, mid-kernel; app1 holds its first warp's placement for
// hold, so its heartbeat stays at cycle 0; app2 asks for more shared memory
// per block than cfgB has; app3 is healthy. twins are the four under the
// same names with nothing broken.
func chaosSweep(hold time.Duration) (cfgs []config.GPU, apps, twins []workloads.App) {
	cfgB := testCfg("cfgB")
	cfgB.SharedMemKBPerSM /= 2
	cfgs = []config.GPU{testCfg("cfgA"), cfgB}
	for i := range 4 {
		twins = append(twins, testApp(fmt.Sprintf("app%d", i), 300))
	}
	wide := *twins[0].Kernels[0]
	wide.Blocks = 24 // 16 blocks fill the SM: the last ones wait for room
	panics := twins[0]
	panics.Kernels = []*gpu.Kernel{&wide}
	panics = atPlacement(panics, func(b, w int) {
		if b == wide.Blocks-1 {
			panic(fmt.Sprintf("block %d warp %d: no program", b, w))
		}
	})
	big := *twins[2].Kernels[0]
	big.SharedMemPerBlock = cfgB.SharedMemKBPerSM*1024 + 1
	tooBig := twins[2]
	tooBig.Kernels = []*gpu.Kernel{&big}
	return cfgs, []workloads.App{panics, hangApp("app1", 300, hold), tooBig, twins[3]}, twins
}

// chaosFaults is what chaosSweep's first pass must report, by app/config.
var chaosFaults = map[string]FaultKind{
	"app0/cfgA": FaultPanic, "app0/cfgB": FaultPanic,
	"app1/cfgA": FaultWatchdog, "app1/cfgB": FaultWatchdog,
	"app2/cfgB": FaultError,
}

// checkFaults reports every difference between the faults res records and
// want, keyed app/config, and returns the faults.
func checkFaults(t *testing.T, res *Result, want map[string]FaultKind) []*SimFault {
	t.Helper()
	var fs []*SimFault
	seen := map[string]bool{}
	for c, err := range res.Errs {
		f := err.(*SimFault)
		fs = append(fs, f)
		key := f.App + "/" + f.Config
		seen[key] = true
		if kind, ok := want[key]; !ok {
			t.Errorf("unexpected faulted cell %s: %v", key, f)
		} else if f.Kind != kind {
			t.Errorf("%s fault kind = %v, want %v (%v)", key, f.Kind, kind, f)
		}
		if res.Runs[c.App][c.Cfg] != nil {
			t.Errorf("%s faulted and has a run", key)
		}
	}
	for key := range want {
		if !seen[key] {
			t.Errorf("the fault in %s was not reported", key)
		}
	}
	return fs
}

// TestChaosSweep is the end-to-end proof of the pillars: a sweep whose
// inputs panic, hang and fail validation completes, reports exactly those
// cells as structured faults with the right classifications and
// diagnostics, and a re-run of the healthy twins against the same
// checkpoint re-executes only the faulted cells.
func TestChaosSweep(t *testing.T) {
	const wd = 50 * time.Millisecond
	cfgs, apps, twins := chaosSweep(4 * wd)
	dir := t.TempDir()
	opt := Options{
		Workers:          4,
		WatchdogInterval: wd,
		CheckpointPath:   filepath.Join(dir, "chaos.ckpt"),
		DiagDir:          filepath.Join(dir, "diag"),
		Logf:             t.Logf,
	}
	// A directory squats on one hung cell's trace file, so that one
	// flight-recorder write fails.
	const squatted = "app1/cfgB"
	if err := os.MkdirAll(filepath.Join(opt.DiagDir, "app1__cfgB.trace.json"), 0o755); err != nil {
		t.Fatal(err)
	}

	res, err := Run(context.Background(), cfgs, nil, apps, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed != 8 || res.Resumed != 0 {
		t.Fatalf("executed %d, resumed %d; want 8, 0", res.Executed, res.Resumed)
	}
	if len(res.Errs) != len(chaosFaults) || res.Complete() {
		t.Fatalf("got %d faults (complete=%v), want exactly the %d broken cells", len(res.Errs), res.Complete(), len(chaosFaults))
	}
	// Every fault wrote its diagnostics, and a fault record names a trace
	// file only if that file was written.
	for _, f := range checkFaults(t, res, chaosFaults) {
		key := f.App + "/" + f.Config
		if f.Kind == FaultPanic && (len(f.Stack) == 0 || f.Cycle == 0) {
			t.Errorf("%s: panic fault at cycle %d with a %d-byte stack, want a stack from mid-kernel", key, f.Cycle, len(f.Stack))
		}
		if f.DumpPath == "" {
			t.Errorf("%s: no diagnostics dump", key)
			continue
		}
		raw, err := os.ReadFile(f.DumpPath)
		if err != nil {
			t.Errorf("dump %s: %v", f.DumpPath, err)
			continue
		}
		var rec struct{ Trace string }
		if err := json.Unmarshal(raw, &rec); err != nil {
			t.Errorf("dump %s: %v", f.DumpPath, err)
		}
		if key == squatted {
			if rec.Trace != "" {
				t.Errorf("%s: fault record points at trace %q, which was never written", key, rec.Trace)
			}
		} else if st, err := os.Stat(rec.Trace); err != nil || !st.Mode().IsRegular() {
			t.Errorf("%s: recorded trace %q is not a file: %v", key, rec.Trace, err)
		}
	}

	// Resume: the healthy twins run under the same names, and only the
	// faulted cells run.
	res2, err := Run(context.Background(), cfgs, nil, twins, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Resumed != 3 || res2.Executed != 5 {
		t.Fatalf("resume: resumed %d, executed %d; want 3, 5", res2.Resumed, res2.Executed)
	}
	if !res2.Complete() {
		t.Fatalf("resume left faults: %v", res2.Errs.Err())
	}

	// A third run restores everything from the checkpoint and simulates
	// nothing.
	res3, err := Run(context.Background(), cfgs, nil, twins, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Resumed != 8 || res3.Executed != 0 || !res3.Complete() {
		t.Fatalf("full resume: resumed %d, executed %d, complete %v; want 8, 0, true",
			res3.Resumed, res3.Executed, res3.Complete())
	}
}
