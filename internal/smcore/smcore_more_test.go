package smcore

import (
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/program"
)

// TestLDCDirectIssue exercises the zero-source direct-dispatch path (LDC
// bypasses the operand collector but still owes a writeback).
func TestLDCDirectIssue(t *testing.T) {
	sm, _ := testSM(t, nil)
	b := program.NewBuilder()
	b.LDC(4)
	b.FMA(5, 4, 4, 5) // depends on the constant load
	p := b.MustBuild()
	if err := sm.Allocate(specOf([]*program.Program{p}, 8, 0)); err != nil {
		t.Fatal(err)
	}
	done := runToDrain(t, sm, 10000)
	if done < 8 {
		t.Errorf("drained at %d, before the constant-cache latency", done)
	}
}

// TestSFUAndTensorPipes exercises the SFU and tensor execution classes.
func TestSFUAndTensorPipes(t *testing.T) {
	sm, run := testSM(t, nil)
	b := program.NewBuilder()
	b.Loop(16, func(lb *program.Builder) {
		lb.SFU(4, 1)
		lb.Tensor(6, 1, 2, 6)
	})
	p := b.MustBuild()
	if err := sm.Allocate(specOf([]*program.Program{p, p}, 16, 0)); err != nil {
		t.Fatal(err)
	}
	runToDrain(t, sm, 50000)
	var issued int64
	for i := range run.SMs[0].SubCores {
		issued += run.SMs[0].SubCores[i].Issued
	}
	if issued != 2*p.Len() {
		t.Errorf("issued = %d, want %d", issued, 2*p.Len())
	}
}

// TestBankStealingPreAllocation drives the stealTick path: a second ready
// warp's instruction is staged into the free CU and converted to a normal
// issue later, with identical committed work.
func TestBankStealingPreAllocation(t *testing.T) {
	mk := func(stealing bool) int64 {
		sm, run := testSM(t, func(g *config.GPU) { g.BankStealing = stealing })
		b := program.NewBuilder()
		b.Loop(64, func(lb *program.Builder) {
			lb.FMA(4, 6, 8, 4) // conflicting operands: slow collection
		})
		p := b.MustBuild()
		progs := make([]*program.Program, 8)
		for i := range progs {
			progs[i] = p
		}
		if err := sm.Allocate(specOf(progs, 16, 0)); err != nil {
			t.Fatal(err)
		}
		runToDrain(t, sm, 100000)
		var issued int64
		for i := range run.SMs[0].SubCores {
			issued += run.SMs[0].SubCores[i].Issued
		}
		if issued != 8*p.Len() {
			t.Fatalf("issued = %d, want %d (stealing=%v)", issued, 8*p.Len(), stealing)
		}
		return issued
	}
	if mk(false) != mk(true) {
		t.Error("bank stealing changed committed work")
	}
}

// TestResetForKernel clears scheduler and assigner state between kernels.
func TestResetForKernel(t *testing.T) {
	sm, _ := testSM(t, nil)
	p := fmaProg(4)
	if err := sm.Allocate(specOf([]*program.Program{p, p, p, p}, 8, 0)); err != nil {
		t.Fatal(err)
	}
	runToDrain(t, sm, 10000)
	sm.ResetForKernel()
	// After reset, the assigner restarts: the next block's warp 0 must
	// land on sub-core 0 again.
	if err := sm.Allocate(specOf([]*program.Program{p}, 8, 0)); err != nil {
		t.Fatal(err)
	}
	if got := sm.warps[sm.blocks[0].warpIdxs[0]].SubCore; got != 0 {
		t.Errorf("first warp after reset on sub-core %d, want 0", got)
	}
	runToDrain(t, sm, 10000)
}

// TestAssignFallback forces the designated sub-core to be register-full
// so placement falls back to the least-loaded sub-core with space.
func TestAssignFallback(t *testing.T) {
	sm, run := testSM(t, nil)
	p := fmaProg(2)
	// Exhaust sub-core 0's register file directly; the next block's warp
	// 0 (round robin designates sub-core 0) must fall back.
	sm.subcores[0].freeRegBytes = 0
	if err := sm.Allocate(specOf([]*program.Program{p, p, p, p}, 8, 0)); err != nil {
		t.Fatal(err)
	}
	if run.SMs[0].AssignFallbacks == 0 {
		t.Error("no fallback recorded despite a full designated sub-core")
	}
	if sm.warps[0].SubCore == 0 {
		t.Error("warp 0 placed on the register-full sub-core")
	}
	runToDrain(t, sm, 50000)
}

// TestCanAcceptPerSubCoreFragmentation: a block can be refused even when
// the SM's total free register space suffices, because registers are
// partitioned per sub-core (the paper's fourth effect).
func TestCanAcceptPerSubCoreFragmentation(t *testing.T) {
	sm, _ := testSM(t, nil)
	p := fmaProg(2)
	// Leave each sub-core 4KB short of a fat warp's 8KB footprint:
	// 20KB free per sub-core minus... set directly: 7KB free each.
	for _, sc := range sm.subcores {
		sc.freeRegBytes = 7 * 1024
	}
	// One warp at 64 regs/thread needs 8KB on a single sub-core. The SM
	// has 28KB free in total but no sub-core has 8KB.
	if sm.CanAccept(specOf([]*program.Program{p}, 64, 0)) {
		t.Error("fragmented SM accepted a block no sub-core can host")
	}
	// A 32-reg warp (4KB) fits.
	if !sm.CanAccept(specOf([]*program.Program{p}, 32, 0)) {
		t.Error("4KB warp refused despite 7KB free per sub-core")
	}
}

// TestWarpStatesAndSchedSlots checks resident bookkeeping fields.
func TestWarpStatesAndSchedSlots(t *testing.T) {
	sm, _ := testSM(t, nil)
	p := fmaProg(2)
	progs := []*program.Program{p, p, p, p, p, p, p, p}
	if err := sm.Allocate(specOf(progs, 8, 0)); err != nil {
		t.Fatal(err)
	}
	// Two warps per sub-core: sched slots 0 and 1.
	for i := 0; i < 8; i++ {
		w := &sm.warps[i]
		if int(w.SchedSlot) != i/4 {
			t.Errorf("warp %d sched slot %d, want %d", i, w.SchedSlot, i/4)
		}
		if w.State != WarpActive {
			t.Errorf("warp %d not active", i)
		}
	}
}

// TestStridedGlobalLoadsUseMultipleTransactions: strided loads occupy the
// LSU coalescer port longer than coalesced ones.
func TestStridedGlobalLoadsUseMultipleTransactions(t *testing.T) {
	mk := func(trait isa.MemTrait) int64 {
		sm, _ := testSM(t, nil)
		b := program.NewBuilder()
		b.Loop(32, func(lb *program.Builder) {
			lb.LDG(4, 1, trait)
			lb.FMA(5, 4, 4, 5)
		})
		p := b.MustBuild()
		progs := make([]*program.Program, 8)
		for i := range progs {
			progs[i] = p
		}
		if err := sm.Allocate(specOf(progs, 16, 0)); err != nil {
			t.Fatal(err)
		}
		return runToDrain(t, sm, 500000)
	}
	co := mk(isa.MemTrait{Pattern: isa.PatCoalesced, Footprint: 1 << 16, Shared: true})
	st := mk(isa.MemTrait{Pattern: isa.PatStrided, StrideBytes: 128, Footprint: 1 << 16, Shared: true})
	if st <= co {
		t.Errorf("strided (%d cycles) not slower than coalesced (%d)", st, co)
	}
}

// TestPrivateFootprintAddressing: warps with private footprints touch
// disjoint lines (low hit rates across warps), unlike shared footprints.
func TestPrivateFootprintAddressing(t *testing.T) {
	run := func(shared bool) float64 {
		sm, runStats := testSM(t, nil)
		b := program.NewBuilder()
		b.Loop(64, func(lb *program.Builder) {
			lb.LDG(4, 1, isa.MemTrait{Pattern: isa.PatCoalesced, Footprint: 16 << 10, Shared: shared})
			lb.FMA(5, 4, 4, 5)
		})
		p := b.MustBuild()
		progs := make([]*program.Program, 8)
		for i := range progs {
			progs[i] = p
		}
		if err := sm.Allocate(specOf(progs, 16, 0)); err != nil {
			t.Fatal(err)
		}
		runToDrain(t, sm, 500000)
		_ = runStats
		l1 := sm.hier.L1(0)
		return float64(l1.Hits) / float64(l1.Hits+l1.Misses)
	}
	sharedRate := run(true)
	privateRate := run(false)
	if sharedRate <= privateRate {
		t.Errorf("shared footprint hit rate %.2f not above private %.2f", sharedRate, privateRate)
	}
}
