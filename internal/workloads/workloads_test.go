package workloads

import (
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/isa"
	"repro/internal/program"
)

// TestCensus pins the evaluation set composition to Section V: 112
// applications across 8 suites.
func TestCensus(t *testing.T) {
	apps, err := All()
	if err != nil {
		t.Fatal(err)
	}
	if len(apps) != 112 {
		t.Fatalf("total applications = %d, want 112", len(apps))
	}
	want := map[string]int{
		"tpch-u": 22, "tpch-c": 22, "cugraph": 7, "rodinia": 15,
		"parboil": 10, "polybench": 18, "deepbench": 12, "cutlass": 6,
	}
	got := map[string]int{}
	for _, a := range apps {
		got[a.Suite]++
	}
	for s, n := range want {
		if got[s] != n {
			t.Errorf("suite %s has %d apps, want %d", s, got[s], n)
		}
	}
	if len(got) != 8 {
		t.Errorf("suites = %d, want 8", len(got))
	}
	suites, err := Suites()
	if err != nil {
		t.Fatal(err)
	}
	if len(suites) != 8 {
		t.Errorf("Suites() = %v, want 8 entries", suites)
	}
}

func TestNamesUniqueAndWellFormed(t *testing.T) {
	seen := map[string]bool{}
	apps, err := All()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range apps {
		if seen[a.Name] {
			t.Errorf("duplicate app name %q", a.Name)
		}
		seen[a.Name] = true
		if len(a.Kernels) == 0 {
			t.Errorf("%s has no kernels", a.Name)
		}
		if a.Suite == "" {
			t.Errorf("%s has no suite", a.Name)
		}
	}
}

// TestTableIIIRoster checks the named sensitive applications of Table III
// are present and flagged.
func TestTableIIIRoster(t *testing.T) {
	roster := []string{
		"tpcU-q8", "tpcC-q9", "pb-mriq", "pb-mrig", "pb-sad", "pb-sgemm",
		"pb-cutcp", "cutlass-4096", "rod-lavaMD", "rod-bp", "rod-srad",
		"rod-htsp", "cg-lou", "cg-bfs", "cg-sssp", "cg-pgrnk", "cg-wcc",
		"cg-katz", "cg-hits", "ply-2Dcon", "ply-3Dcon",
	}
	for _, name := range roster {
		a, err := ByName(name)
		if err != nil {
			t.Errorf("Table III app %s missing: %v", name, err)
			continue
		}
		if !a.Sensitive {
			t.Errorf("Table III app %s not flagged sensitive", name)
		}
	}
	// DeepBench Table III entries map to the large variants.
	for _, name := range []string{"db-conv-tr-l", "db-conv-inf-l", "db-rnn-tr-l", "db-rnn-inf-l"} {
		a, err := ByName(name)
		if err != nil || !a.Sensitive {
			t.Errorf("DeepBench sensitive app %s missing or unflagged", name)
		}
	}
}

func TestSubsetsNonEmptyAndConsistent(t *testing.T) {
	sens, err := Sensitive()
	if err != nil {
		t.Fatal(err)
	}
	if len(sens) < 20 {
		t.Errorf("sensitive subset = %d apps, want >= 20", len(sens))
	}
	rf, err := RFSensitive()
	if err != nil {
		t.Fatal(err)
	}
	if len(rf) < 10 {
		t.Errorf("RF-sensitive subset = %d apps, want >= 10", len(rf))
	}
	for _, a := range rf {
		if !a.RFSensitive {
			t.Errorf("%s in RFSensitive() without flag", a.Name)
		}
	}
	if _, err := ByName("no-such-app"); err == nil {
		t.Error("ByName must fail for unknown apps")
	}
	if got, err := BySuite("cugraph"); err != nil || len(got) != 7 {
		t.Errorf("BySuite(cugraph) = %d (err %v), want 7", len(got), err)
	}
}

// TestAllKernelsValidate runs every kernel through gpu.Kernel.Validate
// against the baseline configuration.
func TestAllKernelsValidate(t *testing.T) {
	cfg := config.VoltaV100()
	apps, err := All()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range apps {
		for _, k := range a.Kernels {
			if err := k.Validate(&cfg); err != nil {
				t.Errorf("%s: %v", a.Name, err)
			}
		}
	}
}

// TestAppSizesBounded keeps the evaluation tractable: each app's dynamic
// instruction count must be large enough to exercise the pipeline but
// small enough for full-suite sweeps.
func TestAppSizesBounded(t *testing.T) {
	apps, err := All()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range apps {
		n := a.Instructions()
		if n < 5_000 {
			t.Errorf("%s: only %d instructions, too small", a.Name, n)
		}
		if n > 2_000_000 {
			t.Errorf("%s: %d instructions, too large for sweeps", a.Name, n)
		}
	}
}

func TestTPCHImbalancePattern(t *testing.T) {
	apps := TPCH(false)
	if len(apps) != 22 {
		t.Fatalf("TPCH = %d queries, want 22", len(apps))
	}
	// Every stage kernel gives warp 0 more work than warp 1 (one long
	// warp in four).
	k := apps[0].Kernels[0]
	p0 := k.WarpProgram(0, 0)
	p1 := k.WarpProgram(0, 1)
	p4 := k.WarpProgram(0, 4)
	if p0.Len() <= p1.Len() {
		t.Errorf("warp0 len %d not > warp1 len %d", p0.Len(), p1.Len())
	}
	if p4.Len() != p0.Len() {
		t.Errorf("warp4 len %d != warp0 len %d (pattern repeats every 4)", p4.Len(), p0.Len())
	}
}

func TestCompressedTPCHHasDecompressKernel(t *testing.T) {
	apps := TPCH(true)
	for _, a := range apps {
		if !strings.Contains(a.Kernels[0].Name, "decomp") {
			t.Errorf("%s does not lead with a decompression kernel", a.Name)
		}
	}
	// The snappy kernel's leader warp carries ~80x the work.
	k := apps[0].Kernels[0]
	lead := k.WarpProgram(0, 0).Len()
	help := k.WarpProgram(0, 1).Len()
	if lead < 20*help {
		t.Errorf("decompress leader/helper = %d/%d, want >= 20x", lead, help)
	}
}

func TestFMAMicroLayouts(t *testing.T) {
	base := FMAMicro(FMABaseline, 256)
	bal := FMAMicro(FMABalanced, 256)
	unb := FMAMicro(FMAUnbalanced, 256)
	if base.WarpsPerBlock != 8 {
		t.Errorf("baseline warps = %d, want 8", base.WarpsPerBlock)
	}
	if bal.WarpsPerBlock != 32 || unb.WarpsPerBlock != 32 {
		t.Error("balanced/unbalanced must have 32 warps (8 compute + 24 empty)")
	}
	countCompute := func(k *gpu.Kernel, pick func(w int) bool) int {
		n := 0
		for w := 0; w < k.WarpsPerBlock; w++ {
			if k.WarpProgram(0, w).Len() > 10 {
				if !pick(w) {
					t.Errorf("%s: warp %d unexpectedly compute", k.Name, w)
				}
				n++
			}
		}
		return n
	}
	if n := countCompute(unb, func(w int) bool { return w%4 == 0 }); n != 8 {
		t.Errorf("unbalanced compute warps = %d, want 8", n)
	}
	if n := countCompute(bal, func(w int) bool { return w < 8 }); n != 8 {
		t.Errorf("balanced compute warps = %d, want 8", n)
	}
	if FMABaseline.String() != "baseline" || FMAUnbalanced.String() != "unbalanced" {
		t.Error("layout names wrong")
	}
}

func TestRFStressMicros(t *testing.T) {
	cfg := config.VoltaV100()
	for v := 0; v < NumRFStressMicros; v++ {
		k := RFStressMicro(v)
		if err := k.Validate(&cfg); err != nil {
			t.Errorf("rfstress-%d: %v", v, err)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range variant must panic")
		}
	}()
	RFStressMicro(99)
}

func TestProfileValidate(t *testing.T) {
	ok := Profile{Name: "x", Blocks: 1, WarpsPerBlock: 1, RegsPerThread: 8, Iters: 1, FMAs: 1}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid profile rejected: %v", err)
	}
	bads := []Profile{
		{Blocks: 1, WarpsPerBlock: 1, RegsPerThread: 8, Iters: 1, FMAs: 1},
		{Name: "x", WarpsPerBlock: 1, RegsPerThread: 8, Iters: 1, FMAs: 1},
		{Name: "x", Blocks: 1, WarpsPerBlock: 1, RegsPerThread: 8, FMAs: 1},
		{Name: "x", Blocks: 1, WarpsPerBlock: 1, Iters: 1, FMAs: 1},
		{Name: "x", Blocks: 1, WarpsPerBlock: 1, RegsPerThread: 8, Iters: 1},
		{Name: "x", Blocks: 1, WarpsPerBlock: 1, RegsPerThread: 8, Iters: 4, FMAs: 1,
			BarrierEvery: 2, WarpWork: func(int) float64 { return 2 }},
	}
	for i, b := range bads {
		if err := b.Validate(); err == nil {
			t.Errorf("bad profile %d accepted", i)
		}
	}
}

func TestProfileBarrierExpansion(t *testing.T) {
	p := Profile{Name: "b", Blocks: 1, WarpsPerBlock: 2, RegsPerThread: 8,
		Iters: 10, FMAs: 1, BarrierEvery: 3, EndBarrier: true}
	k := p.Kernel()
	prog := k.WarpProgram(0, 0)
	bars := 0
	c := prog.Cursor()
	for {
		in, ok := c.Next()
		if !ok {
			break
		}
		if in.Op == isa.OpBAR {
			bars++
		}
	}
	// 10 iters, barrier cadence 3 rounds up to one unrolled group (4
	// iters): 2 in-loop barriers + 1 end barrier.
	if bars != 3 {
		t.Errorf("barriers = %d, want 3", bars)
	}
}

func TestProfileProgramsMemoized(t *testing.T) {
	p := Profile{Name: "m", Blocks: 4, WarpsPerBlock: 8, RegsPerThread: 8,
		Iters: 10, FMAs: 1,
		WarpWork: func(w int) float64 {
			if w%4 == 0 {
				return 4
			}
			return 1
		}}
	k := p.Kernel()
	if k.WarpProgram(0, 1) != k.WarpProgram(3, 2) {
		t.Error("same-multiplier warps must share one program")
	}
	if k.WarpProgram(0, 0) == k.WarpProgram(0, 1) {
		t.Error("different multipliers must get different programs")
	}
}

var sinkProg *program.Program
