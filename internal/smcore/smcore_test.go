package smcore

import (
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/stats"
)

func testSM(t *testing.T, mut func(*config.GPU)) (*SM, *stats.Run) {
	t.Helper()
	cfg := config.VoltaV100()
	cfg.NumSMs = 1
	if mut != nil {
		mut(&cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	run := stats.NewRun(1, cfg.SubCoresPerSM)
	hier := mem.NewHierarchy(cfg)
	return NewSM(0, &cfg, hier, run), run
}

func fmaProg(n int) *program.Program {
	b := program.NewBuilder()
	b.Loop(int64(n), func(lb *program.Builder) { lb.FMA(4, 1, 2, 3) })
	return b.MustBuild()
}

func specOf(progs []*program.Program, regs, shmem int) *BlockSpec {
	return &BlockSpec{Programs: progs, RegsPerThread: regs, SharedMemBytes: shmem}
}

func runToDrain(t *testing.T, sm *SM, maxCycles int64) int64 {
	t.Helper()
	for c := int64(0); c < maxCycles; c++ {
		sm.Tick(c)
		if sm.Drained() {
			return c
		}
	}
	t.Fatalf("SM did not drain within %d cycles", maxCycles)
	return 0
}

func TestScoreboardOps(t *testing.T) {
	var w Warp
	if !w.SBEmpty() {
		t.Fatal("fresh warp must have empty scoreboard")
	}
	w.SBSet(5)
	w.SBSet(5) // idempotent: one clear releases it
	if !w.SBPending(5) || w.SBPending(4) {
		t.Error("SBPending wrong")
	}
	in := isa.MakeFMA(9, 5, 1, 2) // reads R5
	if !w.Hazard(&in) {
		t.Error("RAW hazard missed")
	}
	waw := isa.MakeFMA(5, 1, 2, 3) // writes R5
	if !w.Hazard(&waw) {
		t.Error("WAW hazard missed")
	}
	ok := isa.MakeFMA(9, 1, 2, 3)
	if w.Hazard(&ok) {
		t.Error("false hazard")
	}
	w.SBClear(5)
	if !w.SBEmpty() {
		t.Error("scoreboard not empty after one clear of a register set twice")
	}
	w.SBClear(5) // idempotent
	if !w.SBEmpty() {
		t.Error("scoreboard not empty after a second clear")
	}
	// Out-of-range registers clamp rather than corrupt memory.
	w.SBSet(isa.Reg(1000))
	if !w.SBPending(isa.Reg(1000)) {
		t.Error("clamped register lost")
	}
	w.SBClear(isa.Reg(1000))
}

func TestWarpRandDeterministic(t *testing.T) {
	var a, b Warp
	resetWarp(&a, 7, 0, 0, 0, 0, fmaProg(1), 0)
	resetWarp(&b, 7, 0, 0, 0, 0, fmaProg(1), 0)
	for i := 0; i < 10; i++ {
		if a.NextRand() != b.NextRand() {
			t.Fatal("same-GID warps must have identical random streams")
		}
	}
}

func TestAllocateDistributesRoundRobin(t *testing.T) {
	sm, _ := testSM(t, nil)
	progs := make([]*program.Program, 8)
	p := fmaProg(4)
	for i := range progs {
		progs[i] = p
	}
	if err := sm.Allocate(specOf(progs, 8, 0)); err != nil {
		t.Fatal(err)
	}
	// RR: warps 0..7 -> sub-cores 0,1,2,3,0,1,2,3.
	for i := 0; i < 8; i++ {
		if got := sm.warps[i].SubCore; got != int8(i%4) {
			t.Errorf("warp %d on sub-core %d, want %d", i, got, i%4)
		}
	}
	if sm.ResidentWarps() != 8 {
		t.Errorf("resident = %d, want 8", sm.ResidentWarps())
	}
}

func TestCanAcceptLimits(t *testing.T) {
	sm, _ := testSM(t, nil)
	p := fmaProg(1)
	mkProgs := func(n int) []*program.Program {
		out := make([]*program.Program, n)
		for i := range out {
			out[i] = p
		}
		return out
	}
	// Warp-slot limit: 64 max.
	if !sm.CanAccept(specOf(mkProgs(64), 8, 0)) {
		t.Error("64 warps should fit an empty SM")
	}
	if sm.CanAccept(specOf(mkProgs(65), 8, 0)) {
		t.Error("65 warps must not fit")
	}
	// Shared-memory limit.
	if sm.CanAccept(specOf(mkProgs(1), 8, 97*1024)) {
		t.Error("97KB scratchpad must not fit")
	}
	// Register limit: 64 regs/thread x 32 threads x 4B = 8KB/warp;
	// 4 sub-cores x 64KB = 256KB -> 32 warps max.
	if !sm.CanAccept(specOf(mkProgs(32), 64, 0)) {
		t.Error("32 fat warps should fit")
	}
	if sm.CanAccept(specOf(mkProgs(33), 64, 0)) {
		t.Error("33 fat warps must not fit")
	}
}

// TestCanAcceptZeroAlloc: the block scheduler probes every SM with
// CanAccept after each retirement while blocks are pending, so a probe
// allocates nothing, whether it accepts or refuses in the per-sub-core
// placement walk. The SM has run a while first, so its state is not the
// zero values the runtime keeps preallocated.
func TestCanAcceptZeroAlloc(t *testing.T) {
	sm, _ := testSM(t, nil)
	mkProgs := func(n int) []*program.Program {
		out := make([]*program.Program, n)
		for i := range out {
			out[i] = fmaProg(1000)
		}
		return out
	}
	if err := sm.Allocate(specOf(mkProgs(8), 8, 0)); err != nil {
		t.Fatal(err)
	}
	for c := int64(0); c < 300; c++ {
		sm.Tick(c)
	}
	fits, fat := specOf(mkProgs(32), 8, 0), specOf(mkProgs(29), 64, 0)
	if !sm.CanAccept(fits) || sm.CanAccept(fat) {
		t.Fatal("want 32 thin warps accepted and 29 fat warps refused")
	}
	if a := testing.AllocsPerRun(100, func() { sm.CanAccept(fits); sm.CanAccept(fat) }); a != 0 {
		t.Errorf("CanAccept allocates %.1f times per accept+refuse pair, want 0", a)
	}
}

// TestHostIntoFreedSlotsZeroAlloc holds the age order's upkeep to no
// allocation: once a block has retired, placing warps into every slot it
// freed and releasing them again appends to and deletes from the order in
// its preallocated room.
func TestHostIntoFreedSlotsZeroAlloc(t *testing.T) {
	sm, _ := testSM(t, nil)
	progs := make([]*program.Program, 8)
	for i := range progs {
		progs[i] = fmaProg(20)
	}
	if err := sm.Allocate(specOf(progs, 8, 0)); err != nil {
		t.Fatal(err)
	}
	for c := int64(0); !sm.Drained(); c++ {
		sm.Tick(c)
	}
	sc := sm.subcores[0]
	if len(sc.order) != 0 || sm.st.BlocksCompleted != 1 {
		t.Fatalf("block not retired: age order %v", sc.order)
	}
	if a := testing.AllocsPerRun(100, func() {
		for i := range sc.slots {
			sc.host(int32(i), 8)
		}
		for i := len(sc.slots) - 1; i >= 0; i-- {
			sc.release(int16(i), 8)
		}
	}); a != 0 {
		t.Errorf("filling and emptying a sub-core's freed slots allocates %.1f times, want 0", a)
	}
}

// TestAllocateIntoRetiredSlotZeroAlloc holds block placement to no
// allocation once a block slot has been used: placing a block into a
// retired slot and draining it again reuses the slot's warp list.
func TestAllocateIntoRetiredSlotZeroAlloc(t *testing.T) {
	sm, _ := testSM(t, nil)
	progs := make([]*program.Program, 8)
	for i := range progs {
		progs[i] = fmaProg(2)
	}
	spec := specOf(progs, 8, 0)
	c := int64(0)
	place := func() {
		if err := sm.Allocate(spec); err != nil {
			t.Fatal(err)
		}
		for ; !sm.Drained(); c++ {
			sm.Tick(c)
		}
	}
	place()
	if a := testing.AllocsPerRun(20, place); a != 0 {
		t.Errorf("placing a block into a retired slot and draining it allocates %.1f times, want 0", a)
	}
}

func TestRegisterCapacityLimitsPerSubCore(t *testing.T) {
	// 64 regs/thread: 8 warps per sub-core. Allocate 32 warps (full), all
	// must be placed without fallback under RR.
	sm, run := testSM(t, nil)
	p := fmaProg(2)
	progs := make([]*program.Program, 32)
	for i := range progs {
		progs[i] = p
	}
	if err := sm.Allocate(specOf(progs, 64, 0)); err != nil {
		t.Fatal(err)
	}
	if run.SMs[0].AssignFallbacks != 0 {
		t.Errorf("fallbacks = %d, want 0", run.SMs[0].AssignFallbacks)
	}
	for _, sc := range sm.subcores {
		if len(sc.order) != 8 {
			t.Errorf("sub-core %d hosts %d warps, want 8", sc.id, len(sc.order))
		}
		if sc.freeRegBytes != 0 {
			t.Errorf("sub-core %d has %d free reg bytes, want 0", sc.id, sc.freeRegBytes)
		}
	}
}

func TestBlockRetireFreesResources(t *testing.T) {
	sm, run := testSM(t, nil)
	p := fmaProg(4)
	progs := []*program.Program{p, p, p, p}
	if err := sm.Allocate(specOf(progs, 16, 1024)); err != nil {
		t.Fatal(err)
	}
	runToDrain(t, sm, 10000)
	if sm.ResidentWarps() != 0 {
		t.Error("warps not freed at block retire")
	}
	if run.SMs[0].BlocksCompleted != 1 {
		t.Error("block not counted complete")
	}
	if sm.freeShmem != sm.cfg.SharedMemKBPerSM*1024 {
		t.Error("shared memory not restored")
	}
	for _, sc := range sm.subcores {
		if len(sc.order) != 0 || sc.freeRegBytes != sc.cfg.RegFileKBPerSubCore*1024 {
			t.Error("sub-core resources not restored")
		}
	}
}

func TestFinishedWarpsHoldSlotsUntilBlockRetires(t *testing.T) {
	// One long warp and 7 trivially short warps on a 4-sub-core SM: the
	// short warps finish early but their slots stay occupied (the paper's
	// static-assignment pathology), observable via IdleAllFinished.
	sm, run := testSM(t, nil)
	long := fmaProg(512)
	short := fmaProg(1)
	progs := []*program.Program{long, short, short, short, short, short, short, short}
	if err := sm.Allocate(specOf(progs, 8, 0)); err != nil {
		t.Fatal(err)
	}
	sawFinishedHolding := false
	for c := int64(0); c < 100000; c++ {
		sm.Tick(c)
		if sm.Drained() {
			break
		}
		if sm.ResidentWarps() == 8 && sm.warps[1].State == WarpFinished {
			sawFinishedHolding = true
		}
	}
	if !sawFinishedHolding {
		t.Error("finished warps did not hold their slots while the block ran")
	}
	idle := int64(0)
	for i := range run.SMs[0].SubCores {
		idle += run.SMs[0].SubCores[i].IdleAllFinished
	}
	if idle == 0 {
		t.Error("no IdleAllFinished cycles recorded for stalled sub-cores")
	}
}

func TestBarrierReleasesOnlyWhenAllArrive(t *testing.T) {
	sm, _ := testSM(t, nil)
	// Two warps: both bar then one more FMA.
	b := program.NewBuilder()
	b.FMA(4, 1, 2, 3).Bar().FMA(5, 1, 2, 3)
	p := b.MustBuild()
	if err := sm.Allocate(specOf([]*program.Program{p, p}, 8, 0)); err != nil {
		t.Fatal(err)
	}
	runToDrain(t, sm, 10000)
}

// TestParkedWarpKeepsItsBuffer runs a block whose warps reach each of two
// barriers cycles apart. Issuing BAR steps the cursor past it and drains one
// buffer entry, nothing else: the warp parks with its fill level and cursor
// position where that left them, and neither moves until the release — a
// frame carries both. Every active warp ends each cycle with a full buffer
// or the rest of its program decoded, which is all the issue stage reads of
// it.
func TestParkedWarpKeepsItsBuffer(t *testing.T) {
	sm, _ := testSM(t, nil)
	progs := make([]*program.Program, 8)
	for i := range progs {
		b := program.NewBuilder()
		b.Loop(int64(1+3*i), func(lb *program.Builder) { lb.FMA(4, 4, 2, 3) })
		b.Bar().FMA(5, 1, 2, 3).Bar().IADD(6, 5, 1)
		progs[i] = b.MustBuild()
	}
	if err := sm.Allocate(specOf(progs, 16, 0)); err != nil {
		t.Fatal(err)
	}
	type frontEnd struct {
		state WarpState
		n     int8
		pos   program.Pos
	}
	of := func(w *Warp) frontEnd { return frontEnd{w.State, w.IBufN, w.Cursor.Pos()} }
	before := make([]frontEnd, len(sm.warps))
	cursors := make([]program.Cursor, len(sm.warps))
	parks, parkedCycles := 0, 0
	for c := int64(0); !sm.Drained(); c++ {
		if c > 10000 {
			t.Fatal("SM did not drain")
		}
		for i := range sm.warps {
			before[i], cursors[i] = of(&sm.warps[i]), sm.warps[i].Cursor
		}
		sm.Tick(c)
		for i := range sm.warps {
			w, was := &sm.warps[i], before[i]
			switch w.State {
			case WarpActive:
				if w.IBufN < 2 && int64(w.IBufN) < w.Cursor.Left() {
					t.Fatalf("cycle %d warp %d: active with %d buffered and more program left", c, i, w.IBufN)
				}
			case WarpAtBarrier:
				want := was
				if was.state == WarpActive {
					cur := cursors[i]
					if was.n == 0 || !cur.Head().Op.IsBarrier() {
						t.Fatalf("cycle %d warp %d: parked without issuing BAR", c, i)
					}
					cur.Next()
					want = frontEnd{WarpAtBarrier, was.n - 1, cur.Pos()}
					parks++
				} else {
					parkedCycles++
				}
				if got := of(w); got != want {
					t.Fatalf("cycle %d warp %d: parked front end %+v, want %+v", c, i, got, want)
				}
			}
		}
	}
	if parks < len(progs) || parkedCycles < 10*len(progs) {
		t.Fatalf("%d parks over %d parked warp-cycles: the warps did not wait at their barriers", parks, parkedCycles)
	}
}

func TestBarrierWithExitedWarps(t *testing.T) {
	// One warp exits immediately; the other hits a barrier. The barrier
	// must release without the exited warp.
	sm, _ := testSM(t, nil)
	exiter := program.NewBuilder().MustBuild() // bare EXIT
	barer := program.NewBuilder().Bar().MustBuild()
	if err := sm.Allocate(specOf([]*program.Program{barer, exiter}, 8, 0)); err != nil {
		t.Fatal(err)
	}
	runToDrain(t, sm, 10000)
}

func TestExitWaitsForOutstandingWrites(t *testing.T) {
	// A load followed by EXIT: the warp may not exit until the load's
	// writeback lands.
	sm, _ := testSM(t, nil)
	b := program.NewBuilder()
	b.LDG(4, 1, isa.MemTrait{Pattern: isa.PatCoalesced, Footprint: 1 << 16})
	p := b.MustBuild()
	if err := sm.Allocate(specOf([]*program.Program{p}, 8, 0)); err != nil {
		t.Fatal(err)
	}
	done := runToDrain(t, sm, 100000)
	// A cold global load takes hundreds of cycles; EXIT at ~5 would mean
	// it did not wait.
	if done < 50 {
		t.Errorf("warp exited at cycle %d, before its load returned", done)
	}
}

func TestLSUQueueBackpressure(t *testing.T) {
	// Tiny LSU queue: many concurrent loads must still all complete.
	sm, _ := testSM(t, func(g *config.GPU) { g.LSUQueue = 2 })
	b := program.NewBuilder()
	b.Loop(8, func(lb *program.Builder) {
		lb.LDG(4, 1, isa.MemTrait{Pattern: isa.PatCoalesced, Footprint: 1 << 16})
		lb.FMA(5, 4, 4, 4)
	})
	p := b.MustBuild()
	progs := make([]*program.Program, 16)
	for i := range progs {
		progs[i] = p
	}
	if err := sm.Allocate(specOf(progs, 16, 0)); err != nil {
		t.Fatal(err)
	}
	runToDrain(t, sm, 500000)
}

func TestSharedMemoryConflictDegrees(t *testing.T) {
	cases := []struct {
		name string
		t    isa.MemTrait
		want int
	}{
		{"coalesced", isa.MemTrait{Pattern: isa.PatCoalesced}, 1},
		{"broadcast", isa.MemTrait{Pattern: isa.PatBroadcast}, 1},
		{"stride2w", isa.MemTrait{Pattern: isa.PatStrided, StrideBytes: 8}, 2},
		{"stride32w", isa.MemTrait{Pattern: isa.PatStrided, StrideBytes: 128}, 32},
		{"stride-odd", isa.MemTrait{Pattern: isa.PatStrided, StrideBytes: 12}, 1},
		{"stride-over", isa.MemTrait{Pattern: isa.PatStrided, StrideBytes: 1 << 12}, 32},
		{"random", isa.MemTrait{Pattern: isa.PatRandom}, 2},
	}
	for _, c := range cases {
		if got := sharedConflictDegree(c.t, 32); got != c.want {
			t.Errorf("%s: degree = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestLDSConflictsSlowExecution(t *testing.T) {
	mk := func(stride uint32) *program.Program {
		b := program.NewBuilder()
		b.Loop(64, func(lb *program.Builder) {
			lb.LDS(4, 1, isa.MemTrait{Pattern: isa.PatStrided, StrideBytes: stride})
			lb.FMA(5, 4, 4, 5)
		})
		return b.MustBuild()
	}
	run := func(p *program.Program) int64 {
		sm, _ := testSM(t, nil)
		progs := make([]*program.Program, 8)
		for i := range progs {
			progs[i] = p
		}
		if err := sm.Allocate(specOf(progs, 16, 4096)); err != nil {
			t.Fatal(err)
		}
		return runToDrain(t, sm, 500000)
	}
	fast := run(mk(4))    // conflict-free
	slow := run(mk(1024)) // 32-way conflicts (stride 256 words, pow2)
	if slow <= fast {
		t.Errorf("32-way shared conflicts (%d cycles) not slower than conflict-free (%d)", slow, fast)
	}
}

func TestIssuedInstructionCounts(t *testing.T) {
	sm, run := testSM(t, nil)
	p := fmaProg(16) // 16 FMA + EXIT = 17
	if err := sm.Allocate(specOf([]*program.Program{p, p, p, p}, 8, 0)); err != nil {
		t.Fatal(err)
	}
	runToDrain(t, sm, 10000)
	var issued int64
	for i := range run.SMs[0].SubCores {
		issued += run.SMs[0].SubCores[i].Issued
	}
	if issued != 4*17 {
		t.Errorf("issued = %d, want %d", issued, 4*17)
	}
}

// Property: any mix of FMA/IADD/LDG programs drains, and issued counts
// exactly match program lengths.
func TestSMAlwaysDrainsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := seed
		next := func(n int64) int64 {
			r = r*6364136223846793005 + 1442695040888963407
			v := (r >> 33) % n
			if v < 0 {
				v = -v
			}
			return v
		}
		b := program.NewBuilder()
		ops := next(20) + 1
		for i := int64(0); i < ops; i++ {
			switch next(4) {
			case 0:
				b.FMA(isa.Reg(4+next(4)), 1, 2, 3)
			case 1:
				b.IADD(isa.Reg(8+next(4)), 1, 2)
			case 2:
				b.LDG(isa.Reg(12+next(4)), 1, isa.MemTrait{Pattern: isa.PatCoalesced, Footprint: 1 << 14})
			default:
				b.SFU(isa.Reg(16+next(4)), 1)
			}
		}
		p := b.MustBuild()
		cfg := config.VoltaV100()
		cfg.NumSMs = 1
		run := stats.NewRun(1, cfg.SubCoresPerSM)
		sm := NewSM(0, &cfg, mem.NewHierarchy(cfg), run)
		nw := int(next(12)) + 1
		progs := make([]*program.Program, nw)
		for i := range progs {
			progs[i] = p
		}
		if err := sm.Allocate(specOf(progs, 24, 0)); err != nil {
			return false
		}
		for c := int64(0); c < 200000; c++ {
			sm.Tick(c)
			if sm.Drained() {
				var issued int64
				for i := range run.SMs[0].SubCores {
					issued += run.SMs[0].SubCores[i].Issued
				}
				return issued == int64(nw)*p.Len()
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
