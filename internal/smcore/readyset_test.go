package smcore

import (
	"bytes"
	"math/bits"
	"math/rand"
	"strings"
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
		// The collector's maintained counts — busy, the free-unit set, the
		// per-bank normal reads — are the same kind of derived state: its
		// audit recounts them (with stealing on, across Unsteal too).
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

// TestLeftoversMatchSwapRemoveList holds stealTick's reconstructed order to
// the list the issue stage used to carry: candidates appended in ascending
// slot order, every pick — issued or refused — removed by moving the last
// entry into its place. For 1, 2 and 4 schedulers per sub-core and random
// pick/fail sequences, the two must agree entry for entry.
func TestLeftoversMatchSwapRemoveList(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, ports := range []int{1, 2, 4} {
		for trial := 0; trial < 500; trial++ {
			issuable := rng.Uint64() & rng.Uint64()
			if trial%50 == 0 {
				issuable = ^uint64(0) >> uint(rng.Intn(maxSlots)) // dense, up to all 64 slots
			}
			var list, spent []uint8 // list is the reference model
			for m := issuable; m != 0; m &= m - 1 {
				list = append(list, uint8(bits.TrailingZeros64(m)))
			}
			for port := 0; port < ports; port++ {
				for len(list) > 0 {
					pick := rng.Intn(len(list)) // any policy's choice
					spent = append(spent, list[pick])
					list[pick] = list[len(list)-1]
					list = list[:len(list)-1]
					if rng.Intn(3) == 0 {
						break // issued: this port is done
					}
				}
			}
			var got [maxSlots]uint8
			n := leftovers(issuable, spent, &got)
			if !bytes.Equal(got[:n], list) {
				t.Fatalf("%d ports, issuable %#x, spent %v: leftovers %v, the swap-remove list held %v",
					ports, issuable, spent, got[:n], list)
			}
		}
	}
}

// TestAuditCatchesStaleAge seeds the one ready-set drift no mask shows: a
// ready slot's cached age off by one. The readyset law must name it.
func TestAuditCatchesStaleAge(t *testing.T) {
	cfg := config.VoltaV100()
	cfg.NumSMs = 1
	sm, _, _ := readySetSM(t, &cfg, 8)
	for c := int64(0); c < 20; c++ {
		sm.Tick(c)
	}
	rs := &sm.subcores[0].rs
	if rs.ready == 0 {
		t.Fatal("no ready warp to corrupt; move the cycle")
	}
	rs.age[bits.TrailingZeros64(rs.ready)]++
	vs := sm.Audit()
	if len(vs) != 1 || vs[0].Rule != "readyset" || !strings.Contains(vs[0].Detail, "ages") {
		t.Fatalf("want exactly the readyset age violation, got %v", vs)
	}
}
