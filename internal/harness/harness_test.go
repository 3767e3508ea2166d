package harness

import (
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

func TestRunOneSuccess(t *testing.T) {
	run, fault := RunOne(context.Background(), testCfg("base"), testApp("ok", 200), Options{
		Timeout:          time.Minute,
		WatchdogInterval: time.Second,
	})
	if fault != nil {
		t.Fatalf("unexpected fault: %v", fault)
	}
	if run == nil || run.Cycles == 0 {
		t.Fatalf("run = %+v, want non-empty statistics", run)
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
	run, fault := RunOne(context.Background(), testCfg("base"), testApp("slow", 2_000_000), Options{
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

// The watchdog kills a cell whose heartbeat stops advancing (injected
// hang), classifying it separately from a timeout.
func TestWatchdogKill(t *testing.T) {
	cfg, app := testCfg("base"), testApp("hung", 100)
	run, fault := RunOne(context.Background(), cfg, app, Options{
		WatchdogInterval: 20 * time.Millisecond,
		Injector:         InjectFault(map[string]Injection{"hung/base": InjectHang}),
	})
	if run != nil || fault == nil {
		t.Fatalf("run=%v fault=%v, want a watchdog fault", run, fault)
	}
	if fault.Kind != FaultWatchdog {
		t.Fatalf("fault kind = %v, want watchdog (%v)", fault.Kind, fault)
	}
	if !strings.Contains(fault.Error(), "no forward progress") {
		t.Errorf("fault text %q does not explain the stall", fault.Error())
	}
}

// A canceled context stops the cell and classifies the fault as
// cancellation, not an error of the cell's own.
func TestContextCancelKill(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	run, fault := RunOne(ctx, testCfg("base"), testApp("canceled", 500_000), Options{})
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
	ref, fault := RunOne(context.Background(), cfg, app, Options{})
	if fault != nil {
		t.Fatal(fault)
	}
	const limit = 4096
	if ref.Cycles <= limit {
		t.Fatalf("reference run is %d cycles; the test needs a cell longer than the %d-cycle cap", ref.Cycles, limit)
	}
	opt := Options{MaxCycles: limit, SnapshotDir: t.TempDir(), SnapshotInterval: 1024}

	_, fault = RunOne(context.Background(), cfg, app, opt)
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
	run, fault := RunOne(context.Background(), cfg, app, opt)
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

// TestChaosSweep is the end-to-end proof of the pillars: a sweep
// with one injected panic, one injected hang, and one injected error
// completes, reports exactly those three cells as structured faults with
// the right classifications and diagnostics, and a re-run against the
// same checkpoint re-executes only the three faulted cells.
func TestChaosSweep(t *testing.T) {
	cfgs := []config.GPU{testCfg("cfgA"), testCfg("cfgB")}
	apps := []workloads.App{testApp("app0", 300), testApp("app1", 300), testApp("app2", 300)}
	dir := t.TempDir()
	opt := Options{
		Workers:          4,
		WatchdogInterval: 50 * time.Millisecond,
		CheckpointPath:   filepath.Join(dir, "chaos.ckpt"),
		DiagDir:          filepath.Join(dir, "diag"),
		Injector: InjectFault(map[string]Injection{
			"app0/cfgA": InjectPanic,
			"app1/cfgB": InjectHang,
			"app2/cfgA": InjectError,
		}),
		Logf: t.Logf,
	}
	// A directory squats on the hung cell's trace file, so that one
	// flight-recorder write fails.
	if err := os.MkdirAll(filepath.Join(opt.DiagDir, "app1__cfgB.trace.json"), 0o755); err != nil {
		t.Fatal(err)
	}

	res, err := Run(context.Background(), cfgs, nil, apps, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed != 6 || res.Resumed != 0 {
		t.Fatalf("executed %d, resumed %d; want 6, 0", res.Executed, res.Resumed)
	}
	if len(res.Faults) != 3 || res.Complete() {
		t.Fatalf("got %d faults (complete=%v), want exactly the 3 injected", len(res.Faults), res.Complete())
	}
	want := map[string]FaultKind{
		"app0/cfgA": FaultPanic,
		"app1/cfgB": FaultWatchdog,
		"app2/cfgA": FaultError,
	}
	for _, f := range res.Faults {
		key := f.App + "/" + f.Config
		kind, ok := want[key]
		if !ok {
			t.Errorf("unexpected faulted cell %s: %v", key, f)
			continue
		}
		delete(want, key)
		if f.Kind != kind {
			t.Errorf("%s fault kind = %v, want %v", key, f.Kind, kind)
		}
	}
	for key := range want {
		t.Errorf("injected fault in %s was not reported", key)
	}
	// Faulted cells are nil in the matrix and recorded in Errs; healthy
	// cells have runs.
	for i, app := range apps {
		for j, cfg := range cfgs {
			_, inErrs := res.Errs[Cell{App: i, Cfg: j}]
			if (res.Runs[i][j] == nil) != inErrs {
				t.Errorf("cell %s/%s: run nil=%v but errs recorded=%v",
					app.Name, cfg.Name, res.Runs[i][j] == nil, inErrs)
			}
		}
	}
	// The panic and watchdog cells wrote flight-recorder diagnostics, and
	// a fault record names a trace file only if that file was written.
	for _, f := range res.Faults {
		if f.Kind == FaultError {
			continue // injected before the cell starts; nothing to record
		}
		if f.DumpPath == "" {
			t.Errorf("%s on %s: no diagnostics dump", f.App, f.Config)
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
		if f.Kind == FaultWatchdog {
			if rec.Trace != "" {
				t.Errorf("%s on %s: fault record points at trace %q, which was never written", f.App, f.Config, rec.Trace)
			}
		} else if st, err := os.Stat(rec.Trace); err != nil || !st.Mode().IsRegular() {
			t.Errorf("%s on %s: recorded trace %q is not a file: %v", f.App, f.Config, rec.Trace, err)
		}
	}

	// Resume: the same injector instance has already fired, so the three
	// faulted cells now run clean — and only they run.
	res2, err := Run(context.Background(), cfgs, nil, apps, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Resumed != 3 || res2.Executed != 3 {
		t.Fatalf("resume: resumed %d, executed %d; want 3, 3", res2.Resumed, res2.Executed)
	}
	if !res2.Complete() {
		t.Fatalf("resume left faults: %v", res2.Errs.Err())
	}

	// A third run restores everything from the checkpoint and simulates
	// nothing.
	res3, err := Run(context.Background(), cfgs, nil, apps, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Resumed != 6 || res3.Executed != 0 || !res3.Complete() {
		t.Fatalf("full resume: resumed %d, executed %d, complete %v; want 6, 0, true",
			res3.Resumed, res3.Executed, res3.Complete())
	}
}
