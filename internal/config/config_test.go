package config

import (
	"strings"
	"testing"
)

// TestVoltaV100MatchesTableII pins the baseline preset to the paper's
// Table II values (experiment id: tab2).
func TestVoltaV100MatchesTableII(t *testing.T) {
	g := VoltaV100()
	cases := []struct {
		name string
		got  int
		want int
	}{
		{"NumSMs", g.NumSMs, 80},
		{"SubCoresPerSM", g.SubCoresPerSM, 4},
		{"MaxWarpsPerSM", g.MaxWarpsPerSM, 64},
		{"SharedMemBanks", g.SharedMemBanks, 32},
		{"RegFileKBPerSubCore", g.RegFileKBPerSubCore, 64},
		{"BanksPerSubCore", g.BanksPerSubCore, 2},
		{"CollectorUnitsPerSubCore", g.CollectorUnitsPerSubCore, 2},
		{"L1KBPerSM", g.L1KBPerSM, 128},
		{"L2KB", g.L2KB, 6 * 1024},
		{"L2Assoc", g.L2Assoc, 24},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	if g.WarpScheduler != SchedGTO {
		t.Errorf("scheduler = %v, want GTO", g.WarpScheduler)
	}
	if g.SubCoreAssign != AssignRR {
		t.Errorf("assign = %v, want RR", g.SubCoreAssign)
	}
	if err := g.Validate(); err != nil {
		t.Errorf("baseline does not validate: %v", err)
	}
}

func TestFullyConnectedCapacityParity(t *testing.T) {
	v, fc := VoltaV100(), FullyConnected()
	if fc.SubCoresPerSM != 1 {
		t.Fatalf("FC SubCoresPerSM = %d, want 1", fc.SubCoresPerSM)
	}
	// Same total capacity in every dimension.
	if fc.BanksPerSubCore != v.BanksPerSubCore*v.SubCoresPerSM {
		t.Errorf("FC banks = %d, want %d", fc.BanksPerSubCore, v.BanksPerSubCore*v.SubCoresPerSM)
	}
	if fc.CollectorUnitsPerSubCore != v.CollectorUnitsPerSubCore*v.SubCoresPerSM {
		t.Errorf("FC CUs = %d, want %d", fc.CollectorUnitsPerSubCore, v.CollectorUnitsPerSubCore*v.SubCoresPerSM)
	}
	if fc.SchedulersPerSubCore != v.SchedulersPerSubCore*v.SubCoresPerSM {
		t.Errorf("FC schedulers = %d, want %d", fc.SchedulersPerSubCore, v.SchedulersPerSubCore*v.SubCoresPerSM)
	}
	if fc.FP32LanesPerSubCore != v.FP32LanesPerSubCore*v.SubCoresPerSM {
		t.Errorf("FC FP32 lanes = %d, want %d", fc.FP32LanesPerSubCore, v.FP32LanesPerSubCore*v.SubCoresPerSM)
	}
	if err := fc.Validate(); err != nil {
		t.Errorf("FC does not validate: %v", err)
	}
}

func TestWithHelpers(t *testing.T) {
	g := VoltaV100().WithScheduler(SchedRBA).WithAssign(AssignShuffle).WithCUs(4).WithBanks(4).WithSMs(20)
	if g.WarpScheduler != SchedRBA || g.SubCoreAssign != AssignShuffle {
		t.Error("With helpers did not apply policies")
	}
	if g.CollectorUnitsPerSubCore != 4 || g.BanksPerSubCore != 4 || g.NumSMs != 20 {
		t.Error("With helpers did not apply counts")
	}
	for _, frag := range []string{"RBA", "Shuffle", "4CU", "4bank", "20SM"} {
		if !strings.Contains(g.Name, frag) {
			t.Errorf("name %q missing %q", g.Name, frag)
		}
	}
	if !VoltaV100().WithBankStealing().BankStealing {
		t.Error("WithBankStealing did not enable stealing")
	}
}

func TestDerived(t *testing.T) {
	g := VoltaV100()
	if got := g.WarpsPerSubCore(); got != 16 {
		t.Errorf("WarpsPerSubCore = %d, want 16", got)
	}
	if got := FullyConnected().WarpsPerSubCore(); got != 64 {
		t.Errorf("fully-connected WarpsPerSubCore = %d, want 64", got)
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	mut := []func(*GPU){
		func(g *GPU) { g.NumSMs = 0 },
		func(g *GPU) { g.SubCoresPerSM = 0 },
		func(g *GPU) { g.SchedulersPerSubCore = 0 },
		func(g *GPU) { g.MaxWarpsPerSM = 3 },
		func(g *GPU) { g.MaxWarpsPerSM = 65 },
		func(g *GPU) { g.MaxWarpsPerSM = 260 }, // 65 slots per sub-core
		func(g *GPU) { g.BanksPerSubCore = 0 },
		func(g *GPU) { g.BanksPerSubCore = 257 },
		func(g *GPU) { g.CollectorUnitsPerSubCore = 0 },
		func(g *GPU) { g.CollectorUnitsPerSubCore = 65 }, // CU indices past the free-unit mask
		func(g *GPU) { g.LineBytes = 100 },
		func(g *GPU) { g.HashTableEntries = 5 },
		func(g *GPU) { g.RBAScoreLatency = -1 },
		func(g *GPU) { g.LSUQueue = 0 }, // no memory instruction ever enters the LSU: the cell ran to the cycle cap
		// Each of these was clamped to 1 where it is used: two MachineIDs, one machine.
		func(g *GPU) { g.L1Assoc = 0 },
		func(g *GPU) { g.L2Assoc = -1 },
		// More ways than lines: built as one set of that many ways, so a
		// 1 KB, 24-way L2 simulated 3 KB.
		func(g *GPU) { g.L1KBPerSM, g.L1Assoc = 1, 9 },
		func(g *GPU) { g.L2KB = 1 },
		func(g *GPU) { g.SharedMemBanks = 0 },
		func(g *GPU) { g.L2BytesPerCycle = 0 },
		func(g *GPU) { g.DRAMBytesPerCycle = -8 },
		// A fill would complete before it was requested.
		func(g *GPU) { g.L2Latency = -1 },
		func(g *GPU) { g.DRAMLatency = -1 },
		// Each of these was clamped to 1 lane or pipe where it is built, so 0
		// and -5 simulated the machine 1 does.
		func(g *GPU) { g.IntLanesPerSubCore = 0 },
		func(g *GPU) { g.IntLanesPerSubCore = -5 },
		func(g *GPU) { g.SFULanesPerSubCore = 0 },
		func(g *GPU) { g.FP32LanesPerSubCore = 0 },
		func(g *GPU) { g.TensorPerSubCore = 0 },
		func(g *GPU) { g.TensorPerSubCore = -3 },
		// Refused at launch alone (gpu.Kernel.Validate), never at New.
		func(g *GPU) { g.RegFileKBPerSubCore = 0 },
		// An unknown policy ran as GTO or RR.
		func(g *GPU) { g.WarpScheduler = SchedRBA + 1 },
		func(g *GPU) { g.SubCoreAssign = AssignShuffle + 1 },
	}
	for i, m := range mut {
		g := VoltaV100()
		m(&g)
		if err := g.Validate(); err == nil {
			t.Errorf("mutation %d passed validation", i)
		}
	}
}

func TestPolicyStrings(t *testing.T) {
	if SchedGTO.String() != "GTO" || SchedLRR.String() != "LRR" || SchedRBA.String() != "RBA" {
		t.Error("WarpSched String wrong")
	}
	if AssignRR.String() != "RR" || AssignSRR.String() != "SRR" || AssignShuffle.String() != "Shuffle" {
		t.Error("Assign String wrong")
	}
	if !strings.Contains(WarpSched(9).String(), "9") || !strings.Contains(Assign(9).String(), "9") {
		t.Error("unknown policy String wrong")
	}
}
