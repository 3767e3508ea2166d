package repro

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/exp"
)

func TestFacadeRun(t *testing.T) {
	app, err := AppByName("pb-mriq")
	if err != nil {
		t.Fatal(err)
	}
	cfg := VoltaV100()
	cfg.NumSMs = 2
	r, err := Run(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles <= 0 || r.Instructions <= 0 {
		t.Fatal("empty result")
	}
	if r.IPC() <= 0 {
		t.Fatal("no throughput")
	}
}

func TestFacadeRBADeliversOnSensitiveApp(t *testing.T) {
	app, err := AppByName("pb-sgemm")
	if err != nil {
		t.Fatal(err)
	}
	cfg := VoltaV100()
	cfg.NumSMs = 2
	base, err := Run(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	rba, err := Run(cfg.WithScheduler(SchedRBA), app)
	if err != nil {
		t.Fatal(err)
	}
	if rba.Cycles >= base.Cycles {
		t.Errorf("RBA (%d cycles) did not beat GTO (%d) on a RF-bound app", rba.Cycles, base.Cycles)
	}
}

func TestFacadeWorkloadCatalog(t *testing.T) {
	apps, err := Workloads()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(apps); n != 112 {
		t.Errorf("Workloads = %d, want 112", n)
	}
	suites, err := Suites()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(suites); n != 8 {
		t.Errorf("Suites = %d, want 8", n)
	}
	sens, err := SensitiveWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	if len(sens) == 0 {
		t.Error("no sensitive workloads")
	}
	cg, err := AppsBySuite("cugraph")
	if err != nil || len(cg) != 7 {
		t.Errorf("cugraph roster wrong (%d apps, err %v)", len(cg), err)
	}
	if _, err := AppByName("nope"); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestFacadeExperimentAPI(t *testing.T) {
	if ids := ExperimentIDs(); !slices.Equal(ids, exp.IDs()) {
		t.Fatalf("ExperimentIDs = %v, want exp.IDs() %v", ids, exp.IDs())
	}
	var sb strings.Builder
	if err := RenderExperiment("fig13", &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "fig13") {
		t.Error("render missing header")
	}
	if _, err := Experiment("figX"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestFacadeCustomKernel(t *testing.T) {
	p := WorkloadProfile{
		Name: "custom", Blocks: 2, WarpsPerBlock: 8, RegsPerThread: 16,
		Iters: 8, ILP: 2, FMAs: 2,
	}
	k := p.Kernel()
	cfg := VoltaV100()
	cfg.NumSMs = 1
	r, err := RunKernel(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	if r.Instructions != k.Instructions() {
		t.Errorf("instructions %d != kernel's %d", r.Instructions, k.Instructions())
	}
}
