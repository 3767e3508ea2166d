package gpu

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/trace"
)

// fmaProgram: n independent-chain FMAs (ilp parallel chains) then exit.
func fmaProgram(n int, ilp int) *program.Program {
	if ilp < 1 {
		ilp = 1
	}
	b := program.NewBuilder()
	b.Loop(int64(n/ilp), func(lb *program.Builder) {
		for c := 0; c < ilp; c++ {
			d := isa.Reg(4 + c)
			lb.FMA(d, d, isa.Reg(1), isa.Reg(2))
		}
	})
	return b.MustBuild()
}

// emptyProgram: barrier then exit (the "empty" warps of Fig. 4).
func emptyProgram() *program.Program {
	return program.NewBuilder().Bar().MustBuild()
}

// fmaThenBarProgram: compute warps of Fig. 4 (FMAs, barrier, exit).
func fmaThenBarProgram(n, ilp int) *program.Program {
	if ilp < 1 {
		ilp = 1
	}
	b := program.NewBuilder()
	b.Loop(int64(n/ilp), func(lb *program.Builder) {
		for c := 0; c < ilp; c++ {
			d := isa.Reg(4 + c)
			lb.FMA(d, d, isa.Reg(1), isa.Reg(2))
		}
	})
	b.Bar()
	return b.MustBuild()
}

func tinyCfg() config.GPU {
	g := config.VoltaV100()
	g.NumSMs = 1
	return g
}

// tracedGPU builds a device for cfg with a tracer on SM 0 whose counter
// sampler runs every period cycles (0 = events only, no sampler).
func tracedGPU(tb testing.TB, cfg config.GPU, period int) *GPU {
	tb.Helper()
	g, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	opt := trace.OptionsFor(&cfg, 0)
	opt.RingCap, opt.SamplePeriod = trace.DefaultRingCap, period
	g.SetTracer(trace.New(opt))
	return g
}

func mustRun(t *testing.T, cfg config.GPU, k *Kernel) *GPU {
	t.Helper()
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.RunKernel(k, 2_000_000); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestTrivialKernelCompletes(t *testing.T) {
	p := fmaProgram(64, 4)
	k := &Kernel{
		Name: "trivial", Blocks: 2, WarpsPerBlock: 8, RegsPerThread: 16,
		WarpProgram: func(b, w int) *program.Program { return p },
	}
	g := mustRun(t, tinyCfg(), k)
	r := g.Run()
	if r.Cycles <= 0 {
		t.Fatal("no cycles simulated")
	}
	want := int64(2) * 8 * p.Len()
	if r.Instructions != want {
		t.Fatalf("instructions = %d, want %d", r.Instructions, want)
	}
	if r.SMs[0].BlocksCompleted != 2 {
		t.Fatalf("blocks completed = %d, want 2", r.SMs[0].BlocksCompleted)
	}
}

func TestKernelValidate(t *testing.T) {
	cfg := tinyCfg()
	p := fmaProgram(8, 1)
	good := Kernel{Name: "k", Blocks: 1, WarpsPerBlock: 4, RegsPerThread: 8,
		WarpProgram: func(b, w int) *program.Program { return p }}
	if err := good.Validate(&cfg); err != nil {
		t.Fatalf("good kernel rejected: %v", err)
	}
	bads := []func(*Kernel){
		func(k *Kernel) { k.Blocks = 0 },
		func(k *Kernel) { k.WarpsPerBlock = 0 },
		func(k *Kernel) { k.WarpsPerBlock = 65 },
		func(k *Kernel) { k.SharedMemPerBlock = 1 << 30 },
		func(k *Kernel) { k.RegsPerThread = 0 },
		func(k *Kernel) { k.RegsPerThread = 1000 },
		func(k *Kernel) { k.WarpProgram = nil },
	}
	for i, mut := range bads {
		k := good
		mut(&k)
		if err := k.Validate(&cfg); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	// A block no empty SM can hold: at 200 registers a warp takes 25,600 B,
	// two fit a 64 KB sub-core file and eight the SM. Each warp fits and 32
	// warps are within the SM's slots, so only the first-fit over sub-cores
	// refuses it — at launch, not after waiting out the cycle limit.
	k := good
	k.WarpsPerBlock, k.RegsPerThread = 32, 200
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = g.RunKernel(&k, 0)
	var cle *CycleLimitError
	if err == nil || errors.As(err, &cle) || !strings.Contains(err.Error(), "a sub-core holds 2 such warps") {
		t.Errorf("unplaceable block: want a validation error naming the per-sub-core limit, got %v", err)
	}
	if g.Cycle() != 0 {
		t.Errorf("unplaceable block simulated %d cycles before it was refused", g.Cycle())
	}
}

func TestScoreboardSerializesDependentChain(t *testing.T) {
	// A single warp with a fully dependent FMA chain must run much slower
	// than one with 8 independent chains.
	dep := fmaProgram(256, 1)
	ind := fmaProgram(256, 8)
	mk := func(p *program.Program) *Kernel {
		return &Kernel{Name: "chain", Blocks: 1, WarpsPerBlock: 1, RegsPerThread: 16,
			WarpProgram: func(b, w int) *program.Program { return p }}
	}
	gDep := mustRun(t, tinyCfg(), mk(dep))
	gInd := mustRun(t, tinyCfg(), mk(ind))
	if gDep.Run().Cycles <= gInd.Run().Cycles*2 {
		t.Errorf("dependent chain %d cycles vs independent %d: scoreboard not serializing",
			gDep.Run().Cycles, gInd.Run().Cycles)
	}
}

func TestBarrierHoldsWarps(t *testing.T) {
	// One slow warp + 7 fast warps with a trailing barrier: total time
	// tracks the slow warp.
	slow := fmaThenBarProgram(2048, 2)
	fast := fmaThenBarProgram(16, 2)
	k := &Kernel{Name: "bar", Blocks: 1, WarpsPerBlock: 8, RegsPerThread: 16,
		WarpProgram: func(b, w int) *program.Program {
			if w == 0 {
				return slow
			}
			return fast
		}}
	g := mustRun(t, tinyCfg(), k)
	// Lower bound: the slow warp's FMA chain alone.
	kSlow := &Kernel{Name: "solo", Blocks: 1, WarpsPerBlock: 1, RegsPerThread: 16,
		WarpProgram: func(b, w int) *program.Program { return slow }}
	gs := mustRun(t, tinyCfg(), kSlow)
	if g.Run().Cycles < gs.Run().Cycles {
		t.Errorf("block with barrier finished in %d cycles, before its slowest warp's %d",
			g.Run().Cycles, gs.Run().Cycles)
	}
}

// TestSubCoreImbalanceEffect reproduces the Fig. 3 phenomenon end-to-end:
// on a 4-sub-core SM, concentrating all compute warps on one sub-core
// (warps 0,4,8,... mod 4 == 0 under round robin) is far slower than
// spreading them; a monolithic (fully-connected) SM is insensitive.
func TestSubCoreImbalanceEffect(t *testing.T) {
	const work = 1024
	compute := fmaThenBarProgram(work, 2)
	empty := emptyProgram()
	mk := func(unbalanced bool) *Kernel {
		return &Kernel{Name: "fma-layout", Blocks: 2, WarpsPerBlock: 32, RegsPerThread: 8,
			WarpProgram: func(b, w int) *program.Program {
				if unbalanced {
					if w%4 == 0 { // all land on sub-core 0 under RR
						return compute
					}
					return empty
				}
				if w < 8 { // spread across sub-cores 0..3
					return compute
				}
				return empty
			}}
	}
	part := tinyCfg()
	gU := mustRun(t, part, mk(true))
	gB := mustRun(t, part, mk(false))
	ratio := float64(gU.Run().Cycles) / float64(gB.Run().Cycles)
	if ratio < 2.0 {
		t.Errorf("partitioned unbalanced/balanced = %.2f, want >= 2 (Fig. 3 shape)", ratio)
	}

	fc := config.FullyConnected()
	fc.NumSMs = 1
	fU := mustRun(t, fc, mk(true))
	fB := mustRun(t, fc, mk(false))
	fratio := float64(fU.Run().Cycles) / float64(fB.Run().Cycles)
	if fratio > 1.3 {
		t.Errorf("fully-connected unbalanced/balanced = %.2f, want ~1 (monolithic insensitive)", fratio)
	}
}

// TestSRRFixesOneInFourImbalance: the paper's TPC-H pattern (one long
// warp every 4) is pathological under RR and fixed by SRR.
func TestSRRFixesOneInFourImbalance(t *testing.T) {
	long := fmaThenBarProgram(1024, 2)
	short := fmaThenBarProgram(32, 2)
	k := func() *Kernel {
		return &Kernel{Name: "tpch-like", Blocks: 4, WarpsPerBlock: 16, RegsPerThread: 8,
			WarpProgram: func(b, w int) *program.Program {
				if w%4 == 0 {
					return long
				}
				return short
			}}
	}
	rr := mustRun(t, tinyCfg(), k())
	srrCfg := tinyCfg().WithAssign(config.AssignSRR)
	srr := mustRun(t, srrCfg, k())
	speedup := float64(rr.Run().Cycles) / float64(srr.Run().Cycles)
	if speedup < 1.5 {
		t.Errorf("SRR speedup on 1-in-4 imbalance = %.2f, want >= 1.5", speedup)
	}
	shufCfg := tinyCfg().WithAssign(config.AssignShuffle)
	shuf := mustRun(t, shufCfg, k())
	sspeed := float64(rr.Run().Cycles) / float64(shuf.Run().Cycles)
	if sspeed < 1.2 {
		t.Errorf("Shuffle speedup = %.2f, want >= 1.2", sspeed)
	}
	// CoV of issued instructions drops under SRR (Fig. 17 metric).
	if srr.Run().IssueCoV() >= rr.Run().IssueCoV() {
		t.Errorf("SRR CoV %.3f not below RR CoV %.3f", srr.Run().IssueCoV(), rr.Run().IssueCoV())
	}
}

// TestRBAReducesBankConflicts: on a register-pressure kernel, RBA should
// cut bank conflicts and not be slower than GTO.
func TestRBAReducesBankConflicts(t *testing.T) {
	// Warps use FMA with operands deliberately spread so different warps
	// collide on banks; high ILP keeps many warps ready.
	b := program.NewBuilder()
	b.Loop(256, func(lb *program.Builder) {
		lb.FMA(4, 1, 3, 5)  // slot-dependent banks
		lb.FMA(6, 2, 8, 10) // different mix
		lb.FMA(7, 9, 11, 13)
	})
	p := b.MustBuild()
	k := func() *Kernel {
		return &Kernel{Name: "rf-heavy", Blocks: 4, WarpsPerBlock: 16, RegsPerThread: 16,
			WarpProgram: func(bk, w int) *program.Program { return p }}
	}
	gto := mustRun(t, tinyCfg(), k())
	rbaCfg := tinyCfg().WithScheduler(config.SchedRBA)
	rba := mustRun(t, rbaCfg, k())
	if rba.Run().Cycles > gto.Run().Cycles*105/100 {
		t.Errorf("RBA %d cycles vs GTO %d: RBA should not lose >5%%", rba.Run().Cycles, gto.Run().Cycles)
	}
	t.Logf("GTO: %d cycles, %d conflicts; RBA: %d cycles, %d conflicts",
		gto.Run().Cycles, gto.Run().TotalBankConflicts(),
		rba.Run().Cycles, rba.Run().TotalBankConflicts())
}

func TestMemoryKernelCompletes(t *testing.T) {
	b := program.NewBuilder()
	b.Loop(64, func(lb *program.Builder) {
		lb.LDG(4, 1, isa.MemTrait{Pattern: isa.PatCoalesced, Footprint: 1 << 20, Shared: true})
		lb.FMA(5, 4, 4, 5)
	})
	p := b.MustBuild()
	k := &Kernel{Name: "mem", Blocks: 4, WarpsPerBlock: 8, RegsPerThread: 16,
		WarpProgram: func(bk, w int) *program.Program { return p }}
	g := mustRun(t, tinyCfg(), k)
	r := g.Run()
	if r.SMs[0].L1Hits+r.SMs[0].L1Misses == 0 {
		t.Error("no L1 traffic recorded")
	}
}

func TestSharedMemoryLimitsOccupancy(t *testing.T) {
	p := fmaProgram(64, 2)
	// Each block reserves 48KB: only 2 fit in 96KB despite warp slots for 8.
	k := &Kernel{Name: "shmem", Blocks: 4, WarpsPerBlock: 8, RegsPerThread: 8,
		SharedMemPerBlock: 48 * 1024,
		WarpProgram:       func(b, w int) *program.Program { return p }}
	g := mustRun(t, tinyCfg(), k)
	if g.Run().SMs[0].BlocksCompleted != 4 {
		t.Fatal("not all blocks completed")
	}
}

func TestMaxCyclesGuard(t *testing.T) {
	p := fmaProgram(1<<20, 1)
	k := &Kernel{Name: "long", Blocks: 1, WarpsPerBlock: 1, RegsPerThread: 8,
		WarpProgram: func(b, w int) *program.Program { return p }}
	g, err := New(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	err = g.RunKernel(k, 100)
	if err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Fatalf("expected cycle-guard error, got %v", err)
	}
	var cle *CycleLimitError
	if !errors.As(err, &cle) {
		t.Fatalf("expected *CycleLimitError, got %T (%v)", err, err)
	}
	if cle.Kernel != "long" || cle.MaxCycles != 100 {
		t.Errorf("CycleLimitError = %+v, want Kernel=long MaxCycles=100", cle)
	}
	if cle.BlocksTotal != 1 {
		t.Errorf("BlocksTotal = %d, want 1", cle.BlocksTotal)
	}
}

// TestMonitorCancel: a Monitor cancellation from another goroutine stops
// the cycle loop with a reason-carrying *CancelError — the mechanism the
// harness watchdog and wall-clock timeout kill hung cells through.
func TestMonitorCancel(t *testing.T) {
	p := fmaProgram(1<<20, 1)
	k := &Kernel{Name: "hung", Blocks: 1, WarpsPerBlock: 1, RegsPerThread: 8,
		WarpProgram: func(b, w int) *program.Program { return p }}
	g, err := New(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	mon := new(Monitor)
	g.SetMonitor(mon)

	// The cap turns a lost monitor poll into a failure within seconds: the
	// kernel cannot finish under it, and the canceller gives up once the
	// run has returned instead of waiting for a heartbeat that never comes.
	const maxCycles = 2 << 20
	returned := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Wait until the loop has demonstrably made progress, then kill it.
		for mon.Cycle() == 0 {
			select {
			case <-returned:
				return
			case <-time.After(100 * time.Microsecond):
			}
		}
		mon.Cancel("watchdog: no forward progress")
	}()
	err = g.RunKernel(k, maxCycles)
	close(returned)
	<-done

	var ce *CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("expected *CancelError, got %T (%v): the cycle loop ran %d cycles (heartbeat published: %d) without observing the monitor's cancel",
			err, err, g.Cycle(), mon.Cycle())
	}
	if ce.Kernel != "hung" || ce.Reason != "watchdog: no forward progress" {
		t.Errorf("CancelError = %+v", ce)
	}
	if ce.Cycle == 0 {
		t.Error("CancelError.Cycle = 0, want the kill-point cycle")
	}
	if mon.Reason() != "watchdog: no forward progress" {
		t.Errorf("Monitor.Reason() = %q", mon.Reason())
	}
}

// TestMonitorHeartbeat: the cycle loop publishes forward progress through
// the monitor even when the run completes normally.
func TestMonitorHeartbeat(t *testing.T) {
	p := fmaProgram(1<<14, 1)
	k := &Kernel{Name: "beat", Blocks: 1, WarpsPerBlock: 1, RegsPerThread: 8,
		WarpProgram: func(b, w int) *program.Program { return p }}
	g, err := New(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	mon := new(Monitor)
	g.SetMonitor(mon)
	if err := g.RunKernel(k, 0); err != nil {
		t.Fatal(err)
	}
	if mon.Cycle() == 0 {
		t.Error("monitor heartbeat never advanced during a long run")
	}
	if mon.Canceled() {
		t.Error("monitor spuriously canceled")
	}
}

func TestRunKernelsSequence(t *testing.T) {
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
	want := int64(2) * 2 * 4 * p.Len()
	if g.Run().Instructions != want {
		t.Fatalf("instructions = %d, want %d", g.Run().Instructions, want)
	}
}

// TestTraceReads: at period 1 the tracer's counter sampler is the Fig. 14
// per-cycle register-read series — one sample per cycle, summing to SM 0's
// granted reads.
func TestTraceReads(t *testing.T) {
	p := fmaProgram(64, 2)
	k := &Kernel{Name: "trace", Blocks: 1, WarpsPerBlock: 8, RegsPerThread: 8,
		WarpProgram: func(b, w int) *program.Program { return p }}
	g := tracedGPU(t, tinyCfg(), 1)
	if err := g.RunKernel(k, 0); err != nil {
		t.Fatal(err)
	}
	r, c := g.Run(), g.Tracer().Counters()
	if int64(c.Samples()) != r.Cycles {
		t.Fatalf("trace length %d != cycles %d", c.Samples(), r.Cycles)
	}
	var sampled, granted int64
	for _, v := range c.RFReads {
		sampled += int64(v)
	}
	for i := range r.SMs[0].SubCores {
		granted += r.SMs[0].SubCores[i].RegReads
	}
	if sampled == 0 || sampled != granted {
		t.Errorf("sampled reads %d, SM 0 granted %d", sampled, granted)
	}
}

func TestBankStealingRunsAndIsClose(t *testing.T) {
	p := fmaProgram(256, 4)
	mk := func() *Kernel {
		return &Kernel{Name: "steal", Blocks: 2, WarpsPerBlock: 16, RegsPerThread: 16,
			WarpProgram: func(b, w int) *program.Program { return p }}
	}
	base := mustRun(t, tinyCfg(), mk())
	steal := mustRun(t, tinyCfg().WithBankStealing(), mk())
	// Section VI: bank stealing is within ~1% with 2 CUs — at minimum it
	// must not corrupt execution or blow up latency.
	ratio := float64(steal.Run().Cycles) / float64(base.Run().Cycles)
	if ratio > 1.15 || ratio < 0.85 {
		t.Errorf("bank stealing ratio = %.3f, want ~1.0", ratio)
	}
	if steal.Run().Instructions != base.Run().Instructions {
		t.Error("bank stealing changed instruction count")
	}
}

func TestFullyConnectedNotSlowerOnBalanced(t *testing.T) {
	p := fmaProgram(512, 4)
	mk := func() *Kernel {
		return &Kernel{Name: "bal", Blocks: 4, WarpsPerBlock: 16, RegsPerThread: 16,
			WarpProgram: func(b, w int) *program.Program { return p }}
	}
	part := mustRun(t, tinyCfg(), mk())
	fcCfg := config.FullyConnected()
	fcCfg.NumSMs = 1
	fc := mustRun(t, fcCfg, mk())
	if fc.Run().Cycles > part.Run().Cycles*11/10 {
		t.Errorf("FC %d cycles vs partitioned %d: FC must not lose on balanced compute",
			fc.Run().Cycles, part.Run().Cycles)
	}
}
