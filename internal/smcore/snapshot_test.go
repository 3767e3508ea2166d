package smcore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/regfile"
	"repro/internal/snapshot"
	"repro/internal/stats"
)

// memMixProg exercises every in-flight-writer source the audit models:
// global and shared loads (LSU + writeback heap), constant loads, FMA
// chains (collector units + queued writebacks), and a barrier.
func memMixProg(trips int) *program.Program {
	b := program.NewBuilder()
	b.Loop(int64(trips), func(lb *program.Builder) {
		lb.LDG(8, 1, isa.MemTrait{Pattern: isa.PatCoalesced, Footprint: 1 << 18, StrideBytes: 4})
		lb.FMA(4, 8, 2, 3)
		lb.LDS(9, 4, isa.MemTrait{Footprint: 1 << 12, StrideBytes: 4})
		lb.FMA(5, 9, 2, 3)
		lb.LDC(10)
		lb.IMAD(6, 10, 4, 5)
		lb.Bar()
	})
	return b.MustBuild()
}

// snapSMState frames the hierarchy and SM state together, as the gpu
// layer does, so the restored SM sees identical memory timing.
func snapSMState(t testing.TB, sm *SM, hier *mem.Hierarchy) []byte {
	t.Helper()
	e := snapshot.NewEncoder()
	hier.EncodeState(e)
	sm.EncodeState(e)
	var buf bytes.Buffer
	if err := e.Finish(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func restoreSMState(t *testing.T, sm *SM, hier *mem.Hierarchy, frame []byte, progFor ProgramResolver) error {
	t.Helper()
	d, err := snapshot.NewDecoder(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if err := hier.RestoreState(d); err != nil {
		return err
	}
	if err := sm.RestoreState(d, progFor); err != nil {
		return err
	}
	return d.Finish()
}

func smRoundTripAt(t *testing.T, mut func(*config.GPU), snapCycle int64) {
	t.Helper()
	cfg := config.VoltaV100()
	cfg.NumSMs = 1
	if mut != nil {
		mut(&cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	prog := memMixProg(6)
	progs := make([]*program.Program, 8)
	for i := range progs {
		progs[i] = prog
	}
	progFor := func(gid int64) (*program.Program, error) { return prog, nil }

	runA := stats.NewRun(1, cfg.SubCoresPerSM)
	hierA := mem.NewHierarchy(cfg)
	a := NewSM(0, &cfg, hierA, runA)
	if err := a.Allocate(specOf(progs, 16, 4096)); err != nil {
		t.Fatal(err)
	}
	if err := a.Allocate(&BlockSpec{KernelBlockID: 1, Programs: progs[:4], RegsPerThread: 16, SharedMemBytes: 2048, FirstWarpGID: 8}); err != nil {
		t.Fatal(err)
	}

	for c := int64(0); c < snapCycle; c++ {
		a.Tick(c)
		if c%97 == 0 {
			if vs := a.Audit(); len(vs) != 0 {
				t.Fatalf("cycle %d: audit violations on a healthy SM: %v", c, vs)
			}
		}
	}
	if a.Drained() {
		t.Fatalf("SM drained before cycle %d; snapshot point is not mid-kernel", snapCycle)
	}
	frame := snapSMState(t, a, hierA)

	runB := stats.NewRun(1, cfg.SubCoresPerSM)
	hierB := mem.NewHierarchy(cfg)
	b := NewSM(0, &cfg, hierB, runB)
	if err := restoreSMState(t, b, hierB, frame, progFor); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if vs := b.Audit(); len(vs) != 0 {
		t.Fatalf("audit violations immediately after restore: %v", vs)
	}

	// The restored SM must continue bit-identically: the re-serialized
	// machine state must match at every probe point until drain.
	for c := snapCycle; c < snapCycle+6000; c++ {
		a.Tick(c)
		b.Tick(c)
		if c%251 == 0 || a.Drained() {
			fa := snapSMState(t, a, hierA)
			fb := snapSMState(t, b, hierB)
			if !bytes.Equal(fa, fb) {
				t.Fatalf("cycle %d: machine state diverged after restore", c)
			}
		}
		if a.Drained() != b.Drained() {
			t.Fatalf("cycle %d: drain status diverged", c)
		}
		if a.Drained() {
			return
		}
	}
	t.Fatal("SM did not drain; raise the cycle bound")
}

func TestSMRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*config.GPU)
	}{
		{"gto", nil},
		{"rba-stealing", func(c *config.GPU) {
			c.WarpScheduler = config.SchedRBA
			c.BankStealing = true
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, at := range []int64{3, 40, 230} {
				smRoundTripAt(t, tc.mut, at)
			}
		})
	}
}

func TestSMRestoreShapeMismatch(t *testing.T) {
	cfg := config.VoltaV100()
	cfg.NumSMs = 1
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	hierA := mem.NewHierarchy(cfg)
	a := NewSM(0, &cfg, hierA, stats.NewRun(1, cfg.SubCoresPerSM))
	frame := snapSMState(t, a, hierA)

	other := cfg
	other.MaxWarpsPerSM = 32
	if err := other.Validate(); err != nil {
		t.Fatal(err)
	}
	hierB := mem.NewHierarchy(other)
	b := NewSM(0, &other, hierB, stats.NewRun(1, other.SubCoresPerSM))
	err := restoreSMState(t, b, hierB, frame, func(int64) (*program.Program, error) {
		return fmaProg(1), nil
	})
	if err == nil {
		t.Fatal("restore into a 32-warp-slot SM from a 64-slot snapshot succeeded")
	}
}

// TestSMRestoreRefusesHostileLengths is the regression test for unbounded
// decoded lengths: a CRC-valid frame whose writeback-heap length said 2^27
// used to make RestoreState append 2^27 zero events (52 s, 3.4 GB) before
// reporting the bad varint that followed. Every zero byte of an idle SM's
// frame — each empty collection's length among them — is replaced in turn by
// the varint 2^27; each variant must come back promptly and small, and the
// ones that hit a length must be refused as such.
func TestSMRestoreRefusesHostileLengths(t *testing.T) {
	cfg := config.VoltaV100()
	cfg.NumSMs = 1
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	build := func() *SM { return NewSM(0, &cfg, mem.NewHierarchy(cfg), stats.NewRun(1, cfg.SubCoresPerSM)) }
	e := snapshot.NewEncoder()
	build().EncodeState(e)
	var buf bytes.Buffer
	if err := e.Finish(&buf); err != nil {
		t.Fatal(err)
	}
	payload, err := snapshot.Payload(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	huge := binary.AppendUvarint(nil, 1<<27)
	noProg := func(int64) (*program.Program, error) { return fmaProg(1), nil }
	var refused []time.Duration
	for i, b := range payload {
		if b != 0 {
			continue
		}
		hostile := append(append(append([]byte(nil), payload[:i]...), huge...), payload[i+1:]...)
		d, err := snapshot.NewDecoder(bytes.NewReader(snapshot.Frame(hostile)))
		if err != nil {
			t.Fatal(err)
		}
		sm := build()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		err = sm.RestoreState(d, noProg)
		took := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil && strings.Contains(err.Error(), "exceeds") {
			refused = append(refused, took)
		}
		// One second is a scheduling hiccup on a shared runner at worst; the
		// bug was fifty.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 || took > time.Second {
			t.Fatalf("payload byte %d = 2^27: RestoreState took %v and allocated %d bytes (err %v)", i, took, grew, err)
		}
	}
	// smFrame.Warps, the writeback heap, the LSU queue, and per sub-core two
	// read and two write queues.
	if want := 3 + 4*cfg.SubCoresPerSM; len(refused) < want {
		t.Fatalf("%d variants were refused as over-long lengths, want at least %d", len(refused), want)
	}
	slices.Sort(refused)
	if med := refused[len(refused)/2]; med > 10*time.Millisecond {
		t.Fatalf("refusing an over-long length took %v at the median, want under 10ms", med)
	}
}

// TestSMRestoreRefusesBadWritebackHeap tampers one entry of a mid-kernel SM's
// writeback heap per case, encodes the SM, and expects RestoreState to refuse
// the frame by naming the heap, or the scoreboard law for an entry that names
// an empty or out-of-range warp. Each frame is CRC-valid; restored, it would run until the
// entry came due and then panic indexing a warp slot, clear a bit of a warp
// that is not there, or (out of heap order) deliver writebacks out of time.
// An entry names no sub-core or bank: drain derives both from its warp.
func TestSMRestoreRefusesBadWritebackHeap(t *testing.T) {
	cfg := config.VoltaV100()
	cfg.NumSMs = 1
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	prog := memMixProg(6)
	progFor := func(int64) (*program.Program, error) { return prog, nil }
	for _, tc := range []struct {
		name, want string
		tamper     func(wb wbHeap)
	}{
		{"out of heap order", "writeback heap", func(wb wbHeap) { wb[len(wb)-1].cycle = wb[0].cycle - 1 }},
		{"empty warp slot", "scoreboard @", func(wb wbHeap) { wb[0].warpIdx = int32(cfg.MaxWarpsPerSM - 1) }},
		{"warp slot past the table", "scoreboard @", func(wb wbHeap) { wb[0].warpIdx = int32(cfg.MaxWarpsPerSM) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hier := mem.NewHierarchy(cfg)
			sm := NewSM(0, &cfg, hier, stats.NewRun(1, cfg.SubCoresPerSM))
			if err := sm.Allocate(specOf([]*program.Program{prog, prog, prog, prog}, 16, 0)); err != nil {
				t.Fatal(err)
			}
			c := int64(0)
			for ; len(sm.wb) < 2; c++ {
				if c > 1000 {
					t.Fatal("the writeback heap never held two entries")
				}
				sm.Tick(c)
			}
			tc.tamper(sm.wb)
			fresh := NewSM(0, &cfg, mem.NewHierarchy(cfg), stats.NewRun(1, cfg.SubCoresPerSM))
			err := restoreSMState(t, fresh, mem.NewHierarchy(cfg), snapSMState(t, sm, hier), progFor)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("restoring a frame whose heap was tampered at cycle %d: err %v, want a refusal naming %q", c, err, tc.want)
			}
		})
	}
}

// TestSMOneBitChangesRefusedOrSound changes each bit of the SM's part of a
// mid-kernel frame in turn — the hierarchy's bytes before it are left alone —
// and restores each change onto a fresh SM. The frame holds a queued memory
// instruction and a scheduled writeback. Every change must be refused, or
// run to drain without a panic and with a clean Audit: a queued writeback or
// load names only its warp, so no change can send one to a sub-core, or a
// bank, that is not its warp's.
func TestSMOneBitChangesRefusedOrSound(t *testing.T) {
	cfg := config.VoltaV100()
	cfg.NumSMs, cfg.L1KBPerSM, cfg.L2KB = 1, 1, 4
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	prog := memMixProg(2)
	progFor := func(int64) (*program.Program, error) { return prog, nil }
	hier := mem.NewHierarchy(cfg)
	sm := NewSM(0, &cfg, hier, stats.NewRun(1, cfg.SubCoresPerSM))
	if err := sm.Allocate(specOf([]*program.Program{prog, prog, prog, prog}, 16, 0)); err != nil {
		t.Fatal(err)
	}
	c := int64(0)
	for ; len(sm.lsu.queue) == 0 || len(sm.wb) == 0; c++ {
		if c > 1000 {
			t.Fatal("the LSU queue and the writeback heap never held entries at once")
		}
		sm.Tick(c)
	}
	sm.Sync(c)
	payload, err := snapshot.Payload(snapSMState(t, sm, hier))
	if err != nil {
		t.Fatal(err)
	}
	e := snapshot.NewEncoder()
	hier.EncodeState(e)
	var h bytes.Buffer
	if err := e.Finish(&h); err != nil {
		t.Fatal(err)
	}
	hierPayload, err := snapshot.Payload(h.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	accepted := 0
	for i := len(hierPayload) * 8; i < len(payload)*8; i++ {
		changed := slices.Clone(payload)
		changed[i/8] ^= 1 << (i % 8)
		fresh := NewSM(0, &cfg, mem.NewHierarchy(cfg), stats.NewRun(1, cfg.SubCoresPerSM))
		if restoreSMState(t, fresh, mem.NewHierarchy(cfg), snapshot.Frame(changed), progFor) != nil {
			continue
		}
		accepted++
		if err := drainChanged(fresh); err != nil {
			t.Errorf("payload byte %d bit %d (SM byte %d): restored, then %v", i/8, i%8, i/8-len(hierPayload), err)
		}
	}
	if accepted == 0 {
		t.Fatal("Restore accepted no change of the frame: nothing ran")
	}
	t.Logf("%d of %d one-bit changes of the SM's %d bytes restored and ran to drain", accepted, (len(payload)-len(hierPayload))*8, len(payload)-len(hierPayload))
}

// drainChanged ticks a restored SM at each of its wake-ups until it drains,
// and reports a panic, a machine that does not drain, or a drained machine
// Audit flags.
func drainChanged(sm *SM) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panicked: %v", r)
		}
	}()
	for now := sm.Synced(); !sm.Drained(); now = max(now+1, sm.Wake()) {
		if now > 100_000 {
			return fmt.Errorf("not drained by cycle 100000 (last ticked at cycle %d)", sm.Synced()-1)
		}
		sm.Tick(now)
	}
	if vs := sm.Audit(); len(vs) > 0 {
		return fmt.Errorf("drained to a machine Audit flags: %v", vs)
	}
	return nil
}

// TestSMRestoreRefusesMisplacedWarp edits a mid-kernel SM per case so that
// a warp and its slot tables no longer name each other — the warp's
// SchedSlot or BlockSlot, or a sub-core slot or block list entry — encodes
// the SM, and expects RestoreState to refuse the frame by naming the law
// the edit breaks first (the auditor's order).
// Each frame is CRC-valid; restored, it would run with a warp its sub-core
// or block cannot find, or a slot or block holding a warp that is not its.
// The last case revives a freed collector unit: a free unit is the zero
// unit, so it would dispatch a NOP writing warp 0's R0, which no scoreboard
// holds.
func TestSMRestoreRefusesMisplacedWarp(t *testing.T) {
	cfg := config.VoltaV100()
	cfg.NumSMs = 1
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	prog := memMixProg(6)
	progFor := func(int64) (*program.Program, error) { return prog, nil }
	progs := []*program.Program{prog, prog, prog, prog}
	for _, tc := range []struct {
		name, law string
		edit      func(sm *SM)
	}{
		// Warp 0 sits on sub-core 0 in block 0, warp 1 on sub-core 1, warp 4
		// in block 1; warp 60 is empty.
		{"both slots -1", "residency", func(sm *SM) { sm.warps[0].SchedSlot, sm.warps[0].BlockSlot = -1, -1 }},
		{"sched slot past the table", "occupancy", func(sm *SM) { sm.warps[0].SchedSlot = int16(len(sm.subcores[0].slots)) }},
		{"sched slot of another warp", "occupancy", func(sm *SM) { sm.warps[0].SchedSlot++ }},
		{"block slot -1", "residency", func(sm *SM) { sm.warps[0].BlockSlot = -1 }},
		{"inactive block", "residency", func(sm *SM) { sm.warps[0].BlockSlot = 2 }},
		{"block that does not list it", "residency", func(sm *SM) { sm.warps[0].BlockSlot = 1 }},
		{"no sub-core slot holds it", "occupancy", func(sm *SM) { sm.subcores[0].slots[0] = -1 }},
		{"no block lists it", "residency", func(sm *SM) { sm.blocks[0].warpIdxs = sm.blocks[0].warpIdxs[1:] }},
		{"sub-core slot holds an empty warp", "occupancy", func(sm *SM) { freeSlot(sm.subcores[0], 60) }},
		{"sub-core slot holds another sub-core's warp", "occupancy", func(sm *SM) { freeSlot(sm.subcores[0], 1) }},
		{"another sub-core's warp, counters agree", "occupancy", func(sm *SM) {
			sc := sm.subcores[0]
			freeSlot(sc, 1)
			sc.freeRegBytes -= isa.WarpRegBytes(16)
		}},
		{"block lists an empty warp", "residency", func(sm *SM) { sm.blocks[0].warpIdxs = append(sm.blocks[0].warpIdxs, 60) }},
		{"block lists another block's warp", "residency", func(sm *SM) { sm.blocks[0].warpIdxs = append(sm.blocks[0].warpIdxs, 4) }},
		{"freed collector unit revived", "scoreboard", func(sm *SM) { sm.subcores[0].coll.CU(sm.subcores[0].coll.FreeCU()).Valid = true }},
		// A staged STS never writes back, so its reservation would never clear.
		{"staged LDS read as STS", "scoreboard", func(sm *SM) { stagedUnit(sm, isa.OpLDS).Instr.Op = isa.OpSTS }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hier := mem.NewHierarchy(cfg)
			sm := NewSM(0, &cfg, hier, stats.NewRun(1, cfg.SubCoresPerSM))
			for blk := range 2 {
				if err := sm.Allocate(&BlockSpec{KernelBlockID: blk, Programs: progs, RegsPerThread: 16, FirstWarpGID: int64(4 * blk)}); err != nil {
					t.Fatal(err)
				}
			}
			for c := int64(0); c < 20; c++ {
				sm.Tick(c)
			}
			tc.edit(sm)
			fresh := NewSM(0, &cfg, mem.NewHierarchy(cfg), stats.NewRun(1, cfg.SubCoresPerSM))
			err := restoreSMState(t, fresh, mem.NewHierarchy(cfg), snapSMState(t, sm, hier), progFor)
			if err == nil || !strings.Contains(err.Error(), tc.law+" @") {
				t.Fatalf("restoring the edited frame: err %v, want a refusal naming the %s law", err, tc.law)
			}
		})
	}
}

// TestSMRestoreRefusesForeignStolenUnit edits a frame's stolen collector
// unit per case: it holds an instruction other than its warp's head, or it
// names a warp of another sub-core. Restore relinks the warp to the unit,
// and the lease law refuses the frame: restored, the warp would issue an
// instruction whose operands another one read, or free another sub-core's
// unit.
func TestSMRestoreRefusesForeignStolenUnit(t *testing.T) {
	prog := memMixProg(6)
	progFor := func(int64) (*program.Program, error) { return prog, nil }
	for _, tc := range []struct {
		name string
		edit func(sm *SM, u *regfile.CollectorUnit)
	}{
		{"another instruction", func(sm *SM, u *regfile.CollectorUnit) { u.Instr.Dst++ }},
		{"another sub-core's warp", func(sm *SM, u *regfile.CollectorUnit) {
			u.WarpIdx = int32(slices.IndexFunc(sm.warps, func(w Warp) bool { return w.State != WarpEmpty && w.SubCore != sm.warps[u.WarpIdx].SubCore }))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sm, _ := testSM(t, func(cfg *config.GPU) { *cfg = cfg.WithScheduler(config.SchedRBA).WithBankStealing() })
			progs := []*program.Program{prog, prog, prog, prog, prog, prog, prog, prog}
			if err := sm.Allocate(specOf(progs, 16, 4096)); err != nil {
				t.Fatal(err)
			}
			var stolen *regfile.CollectorUnit
			for c := int64(0); stolen == nil; c++ {
				if c > 2000 {
					t.Fatal("no collector unit was stolen in 2000 cycles")
				}
				sm.Tick(c)
				for _, sc := range sm.subcores {
					for i := range sc.coll.NumCUs() {
						if u := sc.coll.CU(i); u.Valid && u.Stolen {
							stolen = u
						}
					}
				}
			}
			tc.edit(sm, stolen)
			cfg := *sm.cfg
			fresh := NewSM(0, &cfg, mem.NewHierarchy(cfg), stats.NewRun(1, cfg.SubCoresPerSM))
			err := restoreSMState(t, fresh, mem.NewHierarchy(cfg), snapSMState(t, sm, sm.hier), progFor)
			if err == nil || !strings.Contains(err.Error(), "lease @") {
				t.Fatalf("restoring the edited frame: err %v, want a refusal naming the lease law", err)
			}
		})
	}
}

// freeSlot points sub-core sc's first free slot at warp wi.
func freeSlot(sc *SubCore, wi int32) { sc.slots[slices.Index(sc.slots, -1)] = wi }

// stagedUnit ticks sm on, a cycle at a time, until a collector unit stages
// (not steals) an instruction of op, and returns that unit, sm synced.
func stagedUnit(sm *SM, op isa.Op) *regfile.CollectorUnit {
	for c := sm.synced + 1; c < sm.synced+100_000; c++ {
		for _, sc := range sm.subcores {
			for i := range sc.coll.NumCUs() {
				if u := sc.coll.CU(i); u.Valid && !u.Stolen && u.Instr.Op == op {
					sm.Sync(c)
					return u
				}
			}
		}
		sm.Tick(c)
	}
	panic(fmt.Sprintf("no collector unit stages %v", op))
}

// TestSMRestoreReplaysDraws: restore rebuilds each warp's xorshift state by
// replaying its draw count from the GID's seed, and refuses a count no run
// reaches before replaying it — more accesses served than instructions
// fetched, or more draws than a warp's lines for each access — so no frame
// can make restore loop for long.
func TestSMRestoreReplaysDraws(t *testing.T) {
	b := program.NewBuilder()
	b.Loop(6, func(lb *program.Builder) {
		lb.LDG(8, 1, isa.MemTrait{Pattern: isa.PatRandom, Footprint: 1 << 16, Divergence: 4})
		lb.FMA(4, 8, 2, 3)
	})
	prog := b.MustBuild()
	progFor := func(int64) (*program.Program, error) { return prog, nil }
	for _, tc := range []struct {
		name, want string
		edit       func(w *Warp)
	}{
		{"unedited", "", func(*Warp) {}},
		{"more draws than lines", "address draws", func(w *Warp) { w.Draws = isa.WarpSize*w.MemCounter + 1 }},
		{"more accesses than fetches", "memory accesses served", func(w *Warp) { w.MemCounter = w.Cursor.Pos().Fetched + 1 }},
		{"negative accesses", "memory accesses served", func(w *Warp) { w.MemCounter = -1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sm, _ := testSM(t, nil)
			if err := sm.Allocate(specOf([]*program.Program{prog, prog, prog, prog}, 16, 0)); err != nil {
				t.Fatal(err)
			}
			c := int64(0)
			for ; sm.warps[0].Draws == 0; c++ {
				sm.Tick(c)
			}
			for range 50 {
				sm.Tick(c)
				c++
			}
			sm.Sync(c)
			tc.edit(&sm.warps[0])
			fresh := NewSM(0, sm.cfg, mem.NewHierarchy(*sm.cfg), stats.NewRun(1, sm.cfg.SubCoresPerSM))
			err := restoreSMState(t, fresh, mem.NewHierarchy(*sm.cfg), snapSMState(t, sm, sm.hier), progFor)
			if tc.want != "" {
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("restoring the edited frame: err %v, want a refusal naming %q", err, tc.want)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			for i := range sm.warps {
				if w, r := &sm.warps[i], &fresh.warps[i]; w.rng != r.rng || w.Draws != r.Draws {
					t.Errorf("warp %d restored after %d draws with state %x, the live warp after %d with %x", i, r.Draws, r.rng, w.Draws, w.rng)
				}
			}
		})
	}
}

func TestSMRestoreWorkloadMismatch(t *testing.T) {
	cfg := config.VoltaV100()
	cfg.NumSMs = 1
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	prog := memMixProg(6)
	progs := []*program.Program{prog, prog}
	hierA := mem.NewHierarchy(cfg)
	a := NewSM(0, &cfg, hierA, stats.NewRun(1, cfg.SubCoresPerSM))
	if err := a.Allocate(specOf(progs, 16, 0)); err != nil {
		t.Fatal(err)
	}
	for c := int64(0); c < 50; c++ {
		a.Tick(c)
	}
	frame := snapSMState(t, a, hierA)

	// Resuming against a different workload must fail loudly, not
	// silently misposition cursors.
	hierB := mem.NewHierarchy(cfg)
	b := NewSM(0, &cfg, hierB, stats.NewRun(1, cfg.SubCoresPerSM))
	err := restoreSMState(t, b, hierB, frame, func(int64) (*program.Program, error) {
		return fmaProg(2), nil
	})
	if err == nil {
		t.Fatal("restore against the wrong workload succeeded")
	}
}

func TestAuditCatchesSeededScoreboardCorruption(t *testing.T) {
	cfg := config.VoltaV100()
	cfg.NumSMs = 1
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	prog := memMixProg(50)
	hier := mem.NewHierarchy(cfg)
	sm := NewSM(0, &cfg, hier, stats.NewRun(1, cfg.SubCoresPerSM))
	if err := sm.Allocate(specOf([]*program.Program{prog, prog}, 16, 0)); err != nil {
		t.Fatal(err)
	}
	for c := int64(0); c < 100; c++ {
		sm.Tick(c)
	}
	if vs := sm.Audit(); len(vs) != 0 {
		t.Fatalf("healthy SM reported %v", vs)
	}
	// A pending bit with no in-flight writer, in the first active warp; the
	// ready set is reclassed so only the scoreboard law is broken.
	corrupted := false
	for i := range sm.warps {
		w := &sm.warps[i]
		if w.State != WarpActive {
			continue
		}
		r := isa.Reg(0)
		for w.SBPending(r) {
			r++
		}
		w.SBSet(r)
		sm.subcores[w.SubCore].reclass(int(w.SchedSlot))
		corrupted = true
		break
	}
	if !corrupted {
		t.Fatal("no active warp to corrupt")
	}
	vs := sm.Audit()
	if len(vs) == 0 {
		t.Fatal("seeded scoreboard inconsistency not detected")
	}
	for _, v := range vs {
		if v.Rule != "scoreboard" {
			t.Fatalf("violation rule = %q, want scoreboard (%v)", v.Rule, v)
		}
	}
	if s := vs[0].String(); s == "" || s == vs[0].Detail {
		t.Fatalf("violation String() lost context: %q", s)
	}
	_ = fmt.Sprintf("%v", vs)
}
