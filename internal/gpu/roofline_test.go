package gpu

import (
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/program"
)

// TestRooflineBounds: simulated IPC can never exceed the architectural
// ceilings — issue width, FP32 initiation throughput, and register-read
// bandwidth — for pure-FMA kernels on any configuration.
func TestRooflineBounds(t *testing.T) {
	p := fmaProgram(256, 8)
	k := &Kernel{Name: "roofline", Blocks: 8, WarpsPerBlock: 16, RegsPerThread: 16,
		WarpProgram: func(b, w int) *program.Program { return p }}
	cfgs := []config.GPU{
		func() config.GPU { c := config.VoltaV100(); c.NumSMs = 1; return c }(),
		func() config.GPU { c := config.FullyConnected(); c.NumSMs = 1; return c }(),
		// The 2-way point between Volta's 4-way split and a monolithic core
		// (AMD's dual compute unit, Section II-A), at constant total capacity.
		func() config.GPU {
			c := config.VoltaV100()
			c.Name, c.NumSMs, c.SubCoresPerSM, c.SchedulersPerSubCore = "2-way", 1, 2, 2
			c.RegFileKBPerSubCore, c.BanksPerSubCore, c.CollectorUnitsPerSubCore, c.DispatchPortsPerSubCore = 128, 4, 4, 4
			c.FP32LanesPerSubCore, c.IntLanesPerSubCore, c.SFULanesPerSubCore, c.TensorPerSubCore = 32, 32, 8, 2
			return c
		}(),
	}
	for _, cfg := range cfgs {
		g, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.RunKernel(k, 0); err != nil {
			t.Fatal(err)
		}
		ipc := g.Run().IPC()
		issueBound := float64(cfg.NumSMs * cfg.SubCoresPerSM * cfg.SchedulersPerSubCore)
		fp32Bound := float64(cfg.NumSMs*cfg.SubCoresPerSM*cfg.FP32LanesPerSubCore) / float64(isa.WarpSize)
		// FMA reads ~3 operands; bank read ports bound sustained issue.
		bankBound := float64(cfg.NumSMs*cfg.SubCoresPerSM*cfg.BanksPerSubCore) / 2.5
		for name, bound := range map[string]float64{
			"issue": issueBound, "fp32": fp32Bound, "banks": bankBound,
		} {
			// 1% slack: the stream is ~99.8% FMA (EXITs issue too).
			if ipc > bound*1.01 {
				t.Errorf("%s: IPC %.2f exceeds %s roofline %.2f", cfg.Name, ipc, name, bound)
			}
		}
		// And the run must achieve a sane fraction of the tightest bound.
		tightest := issueBound
		if fp32Bound < tightest {
			tightest = fp32Bound
		}
		if ipc < tightest*0.25 {
			t.Errorf("%s: IPC %.2f below 25%% of roofline %.2f", cfg.Name, ipc, tightest)
		}
	}
}

// TestPerKernelStats: RunKernels must record one KernelStats per launch
// whose totals match the run.
func TestPerKernelStats(t *testing.T) {
	p := fmaProgram(32, 2)
	mk := func(name string) *Kernel {
		return &Kernel{Name: name, Blocks: 2, WarpsPerBlock: 4, RegsPerThread: 8,
			WarpProgram: func(b, w int) *program.Program { return p }}
	}
	g, err := New(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.RunKernels([]*Kernel{mk("k1"), mk("k2")}, 0); err != nil {
		t.Fatal(err)
	}
	r := g.Run()
	if len(r.Kernels) != 2 {
		t.Fatalf("kernel records = %d, want 2", len(r.Kernels))
	}
	var cyc, instr int64
	for _, ks := range r.Kernels {
		cyc += ks.Cycles
		instr += ks.Instructions
	}
	if cyc != r.Cycles || instr != r.Instructions {
		t.Errorf("per-kernel totals (%d, %d) != run totals (%d, %d)", cyc, instr, r.Cycles, r.Instructions)
	}
	if r.Kernels[0].Name != "k1" || r.Kernels[1].Name != "k2" {
		t.Error("kernel labels wrong")
	}
}

// TestOccupancyStat: mean occupancy is positive and bounded by the SM's
// warp capacity.
func TestOccupancyStat(t *testing.T) {
	p := fmaProgram(128, 4)
	k := &Kernel{Name: "occ", Blocks: 8, WarpsPerBlock: 8, RegsPerThread: 16,
		WarpProgram: func(b, w int) *program.Program { return p }}
	g, err := New(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.RunKernel(k, 0); err != nil {
		t.Fatal(err)
	}
	occ := g.Run().MeanOccupancy()
	if occ <= 0 || occ > 64 {
		t.Errorf("MeanOccupancy = %.1f, want (0, 64]", occ)
	}
}

// TestConcurrentKernelsInterleave: two concurrent kernels finish faster
// than strictly serializing them when each underutilizes the device.
func TestConcurrentKernelsInterleave(t *testing.T) {
	p := fmaProgram(256, 2)
	mk := func(name string) *Kernel {
		return &Kernel{Name: name, Blocks: 2, WarpsPerBlock: 8, RegsPerThread: 16,
			WarpProgram: func(b, w int) *program.Program { return p }}
	}
	serial, err := New(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := serial.RunKernels([]*Kernel{mk("a"), mk("b")}, 0); err != nil {
		t.Fatal(err)
	}
	conc, err := New(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := conc.RunConcurrent([]*Kernel{mk("a"), mk("b")}, 0); err != nil {
		t.Fatal(err)
	}
	if conc.Run().Instructions != serial.Run().Instructions {
		t.Error("concurrent execution changed committed work")
	}
	if conc.Run().Cycles >= serial.Run().Cycles {
		t.Errorf("concurrent (%d cycles) not faster than serial (%d) on an underutilized device",
			conc.Run().Cycles, serial.Run().Cycles)
	}
	if len(conc.Run().Kernels) != 1 {
		t.Error("concurrent launch should record one batch entry")
	}
}

// TestTraceIssueTimeline: the sampler's per-sub-core issue series must
// cover the run and sum to SM 0's issued instructions (whole periods only).
func TestTraceIssueTimeline(t *testing.T) {
	p := fmaProgram(128, 4)
	k := &Kernel{Name: "tl", Blocks: 4, WarpsPerBlock: 8, RegsPerThread: 16,
		WarpProgram: func(b, w int) *program.Program { return p }}
	g := tracedGPU(t, tinyCfg(), 16)
	if err := g.RunKernel(k, 0); err != nil {
		t.Fatal(err)
	}
	r, c := g.Run(), g.Tracer().Counters()
	if len(c.IssueBySub) != 4 {
		t.Fatalf("timeline sub-cores = %d, want 4", len(c.IssueBySub))
	}
	if want := int((r.Cycles + 15) / 16); c.Samples() != want {
		t.Errorf("%d samples over %d cycles, want %d", c.Samples(), r.Cycles, want)
	}
	var bucketed int64
	for _, series := range c.IssueBySub {
		for _, v := range series {
			bucketed += int64(v)
		}
	}
	var issued int64
	for i := range r.SMs[0].SubCores {
		issued += r.SMs[0].SubCores[i].Issued
	}
	// The trailing partial period is never sampled.
	if bucketed > issued || issued-bucketed > 4*16*4 {
		t.Errorf("bucketed %d vs issued %d", bucketed, issued)
	}
}
