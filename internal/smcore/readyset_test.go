package smcore

import (
	"testing"

	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/stats"
)

// conflictProg keeps collector units busy on one bank (slow collection,
// CU-full cycles, leftover candidates for bank stealing) and ends in a
// barrier so warps park and release across sub-cores.
func conflictProg(trips int) *program.Program {
	b := program.NewBuilder()
	b.Loop(int64(trips), func(lb *program.Builder) {
		lb.FMA(4, 6, 8, 4)
		lb.FMA(5, 1, 2, 3)
		lb.LDC(7)
	})
	b.Bar()
	return b.MustBuild()
}

// readySetSM builds a one-SM machine holding a memMixProg block and a
// conflictProg block of warps warps each; round-robin assignment spreads
// both blocks' barriers over every sub-core.
func readySetSM(t *testing.T, cfg *config.GPU, warps int) (*SM, *mem.Hierarchy, ProgramResolver) {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	mix, conflict := memMixProg(4), conflictProg(24)
	block := func(p *program.Program, id int) *BlockSpec {
		progs := make([]*program.Program, warps)
		for i := range progs {
			progs[i] = p
		}
		return &BlockSpec{KernelBlockID: id, Programs: progs, RegsPerThread: 16, SharedMemBytes: 4096, FirstWarpGID: int64(id * warps)}
	}
	hier := mem.NewHierarchy(*cfg)
	sm := NewSM(0, cfg, hier, stats.NewRun(1, cfg.SubCoresPerSM))
	for id, p := range []*program.Program{mix, conflict} {
		if err := sm.Allocate(block(p, id)); err != nil {
			t.Fatal(err)
		}
	}
	progFor := func(gid int64) (*program.Program, error) {
		if gid < int64(warps) {
			return mix, nil
		}
		return conflict, nil
	}
	return sm, hier, progFor
}

func checkReadySets(t *testing.T, sm *SM, cycle int64) {
	t.Helper()
	for _, sc := range sm.subcores {
		if want := sc.scanReadySet(); want != sc.rs {
			t.Fatalf("cycle %d sub-core %d: maintained ready set %+v, full scan gives %+v", cycle, sc.id, sc.rs, want)
		}
		// The collector's busy count is the same kind of derived state: its
		// audit recounts it (with stealing on, across Unsteal too).
		if vs := sc.coll.Audit("sub"); len(vs) != 0 {
			t.Fatalf("cycle %d sub-core %d: %v", cycle, sc.id, vs)
		}
	}
}

// TestReadySetMatchesFullScan is the differential test behind the
// event-driven issue stage: after every cycle to drain, each sub-core's
// maintained masks and cached source banks must equal what a scan of all
// its slots derives from the warps. A missed reclass at any eligibility
// event shows up as a mask that disagrees on the cycle it happens.
func TestReadySetMatchesFullScan(t *testing.T) {
	for _, tc := range []struct {
		name  string
		base  func() config.GPU
		mut   func(*config.GPU)
		warps int
	}{
		{"gto", config.VoltaV100, nil, 8},
		{"lrr", config.VoltaV100, func(c *config.GPU) { c.WarpScheduler = config.SchedLRR }, 8},
		{"rba", config.VoltaV100, func(c *config.GPU) { c.WarpScheduler = config.SchedRBA }, 8},
		{"rba-stealing", config.VoltaV100, func(c *config.GPU) {
			c.WarpScheduler = config.SchedRBA
			c.BankStealing = true
		}, 8},
		{"two-schedulers", config.VoltaV100, func(c *config.GPU) { c.SchedulersPerSubCore = 2 }, 8},
		{"fully-connected", config.FullyConnected, nil, 32},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.base()
			cfg.NumSMs = 1
			if tc.mut != nil {
				tc.mut(&cfg)
			}
			sm, _, _ := readySetSM(t, &cfg, tc.warps)
			if len(sm.subcores[0].slots) != cfg.MaxWarpsPerSM/cfg.SubCoresPerSM {
				t.Fatalf("sub-core has %d slots", len(sm.subcores[0].slots))
			}
			checkReadySets(t, sm, -1)
			c := int64(0)
			for ; !sm.Drained(); c++ {
				if c > 200000 {
					t.Fatal("SM did not drain; raise the cycle bound")
				}
				sm.Tick(c)
				checkReadySets(t, sm, c)
			}
			if vs := sm.Audit(); len(vs) != 0 {
				t.Fatalf("audit violations at drain: %v", vs)
			}
			t.Logf("drained at cycle %d", c)
		})
	}
}

// TestReadySetRebuiltOnRestore restores a mid-kernel frame into a fresh SM:
// the masks are not in the frame, so what RestoreState rebuilds must equal
// the uninterrupted run's — at the restore point and on every cycle after.
func TestReadySetRebuiltOnRestore(t *testing.T) {
	cfg := config.VoltaV100()
	cfg.NumSMs = 1
	cfg.WarpScheduler = config.SchedRBA
	cfg.BankStealing = true
	a, hierA, progFor := readySetSM(t, &cfg, 8)
	const snapAt = 150
	for c := int64(0); c < snapAt; c++ {
		a.Tick(c)
	}
	if a.Drained() {
		t.Fatal("SM drained before the snapshot point")
	}
	hierB := mem.NewHierarchy(cfg)
	b := NewSM(0, &cfg, hierB, stats.NewRun(1, cfg.SubCoresPerSM))
	if err := restoreSMState(t, b, hierB, snapSMState(t, a, hierA), progFor); err != nil {
		t.Fatalf("restore: %v", err)
	}
	for c := int64(snapAt); ; c++ {
		for i, sc := range a.subcores {
			if sc.rs != b.subcores[i].rs {
				t.Fatalf("cycle %d sub-core %d: restored run's ready set %+v, uninterrupted run's %+v", c, i, b.subcores[i].rs, sc.rs)
			}
		}
		if a.Drained() {
			return
		}
		if c > 200000 {
			t.Fatal("SM did not drain; raise the cycle bound")
		}
		a.Tick(c)
		b.Tick(c)
	}
}
