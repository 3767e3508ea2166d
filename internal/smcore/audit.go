package smcore

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/isa"
	"repro/internal/regfile"
)

// willWriteBack mirrors LSU.serve's writeback-scheduling decision: whether
// a queued memory instruction will eventually clear a scoreboard bit.
func willWriteBack(in *isa.Instr) bool {
	if !in.Dst.Valid() {
		return false
	}
	switch in.Op.SpaceOf() {
	case isa.SpaceGlobal:
		return in.Op != isa.OpSTG
	case isa.SpaceShared:
		return in.Op == isa.OpLDS
	case isa.SpaceConst:
		return true
	}
	return false
}

// sbMark sets the bit for register r in a reconstructed scoreboard image,
// applying the same ≥256 clamp as Warp.SBSet.
func sbMark(sb *[sbWords]uint64, r isa.Reg) {
	idx, bit := int(r)>>6, uint(r)&63
	if idx >= sbWords {
		idx, bit = sbWords-1, 63
	}
	sb[idx] |= 1 << bit
}

func popcount(sb *[sbWords]uint64) int {
	n := 0
	for _, w := range sb {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// Audit re-derives the SM's conservation laws from first principles and
// reports every divergence from the live bookkeeping. It is read-only and
// safe to call between cycles (never mid-Tick). Rules emitted here:
//
//   - scoreboard: each warp's pending-register bitset must equal the union
//     of destinations held by in-flight writers (writeback heap, queued
//     collector writebacks, staged non-stolen collector units, LSU queue
//     entries that will schedule a writeback), and sbCount must equal the
//     bitset's popcount.
//   - lease: collector-unit reference counting (delegated per sub-core to
//     regfile.Collector.Audit), plus stolen-CU back-pointer consistency.
//   - occupancy: sub-core slot tables vs warp back-pointers and used
//     counts; SM-wide resident/live warp and block tallies.
//   - regbudget: per-sub-core free register bytes vs hosted warps' demand.
//   - shmem: SM shared-memory free space vs active blocks' reservations.
//   - lsu: queue bound and entry validity.
//   - residency: per-block warp lifecycle counts (exited, at-barrier).
//   - readyset: each sub-core's event-maintained ready set — masks, and the
//     ages and source banks the scheduler reads beside them — must equal
//     the one a full scan of its slots derives from the warps; a sleeping
//     sub-core must be quiescent, and no sub-core's clock may lead the SM's
//     or, awake, lag it.
func (sm *SM) Audit() []audit.Violation {
	var vs []audit.Violation
	where := fmt.Sprintf("sm%d", sm.id)

	// Reconstruct every warp's expected scoreboard from in-flight writers.
	// The scratch lives on the SM: the audit runs periodically from the
	// device heartbeat and must not allocate per sweep.
	if cap(sm.auditSB) < len(sm.warps) {
		sm.auditSB = make([][sbWords]uint64, len(sm.warps))
	}
	expected := sm.auditSB[:len(sm.warps)]
	for i := range expected {
		expected[i] = [sbWords]uint64{}
	}
	mark := func(warpIdx int32, r isa.Reg, src string) {
		if int(warpIdx) < 0 || int(warpIdx) >= len(sm.warps) {
			vs = append(vs, audit.Violationf("scoreboard", where,
				"%s references warp %d of %d", src, warpIdx, len(sm.warps)))
			return
		}
		sbMark(&expected[warpIdx], r)
	}
	for _, ev := range sm.wb {
		mark(ev.warpIdx, ev.reg, "writeback heap entry")
	}
	for i := range sm.lsu.queue {
		en := &sm.lsu.queue[i]
		if willWriteBack(&en.in) {
			mark(en.warpIdx, en.in.Dst, "LSU queue entry")
		}
	}
	for _, sc := range sm.subcores {
		sub := fmt.Sprintf("%s/sub%d", where, sc.id)
		vs = append(vs, sc.coll.Audit(sub)...)
		sc.coll.ForEachQueuedWrite(func(w regfile.WriteReq) {
			mark(w.WarpIdx, w.Reg, "queued collector writeback")
		})
		for i := 0; i < sc.coll.NumCUs(); i++ {
			u := sc.coll.CU(i)
			if !u.Valid {
				continue
			}
			// Stolen CUs pre-allocate before issue: no SBSet yet.
			if !u.Stolen && u.Instr.Dst.Valid() {
				mark(u.WarpIdx, u.Instr.Dst, "staged collector unit")
			}
			if u.Stolen {
				if int(u.WarpIdx) < 0 || int(u.WarpIdx) >= len(sm.warps) {
					vs = append(vs, audit.Violationf("lease", sub,
						"stolen cu%d references warp %d of %d", i, u.WarpIdx, len(sm.warps)))
				} else if int(sm.warps[u.WarpIdx].StolenCU) != i {
					vs = append(vs, audit.Violationf("lease", sub,
						"stolen cu%d held for warp %d, but that warp's StolenCU is %d",
						i, u.WarpIdx, sm.warps[u.WarpIdx].StolenCU))
				}
			}
		}
	}
	for i := range sm.warps {
		w := &sm.warps[i]
		if w.sb != expected[i] {
			vs = append(vs, audit.Violationf("scoreboard", where,
				"warp %d scoreboard %x, but in-flight writers imply %x", i, w.sb, expected[i]))
		}
		if got := popcount(&w.sb); got != int(w.sbCount) {
			vs = append(vs, audit.Violationf("scoreboard", where,
				"warp %d sbCount=%d, bitset holds %d", i, w.sbCount, got))
		}
	}

	// Residency and occupancy tallies.
	resident, live := 0, 0
	for i := range sm.warps {
		w := &sm.warps[i]
		if w.State == WarpEmpty {
			continue
		}
		resident++
		if w.State == WarpActive || w.State == WarpAtBarrier {
			live++
		}
		if int(w.BlockSlot) < 0 || int(w.BlockSlot) >= len(sm.blocks) || !sm.blocks[w.BlockSlot].active {
			vs = append(vs, audit.Violationf("residency", where,
				"warp %d references inactive block slot %d", i, w.BlockSlot))
		}
		sc := sm.subcores[w.SubCore]
		if int(w.SchedSlot) < 0 || int(w.SchedSlot) >= len(sc.slots) || sc.slots[w.SchedSlot] != int32(i) {
			vs = append(vs, audit.Violationf("occupancy", where,
				"warp %d claims sub%d slot %d, slot table disagrees", i, w.SubCore, w.SchedSlot))
		}
	}
	if resident != sm.residentWarps {
		vs = append(vs, audit.Violationf("occupancy", where,
			"residentWarps=%d, warp table holds %d", sm.residentWarps, resident))
	}
	if live != sm.liveWarps {
		vs = append(vs, audit.Violationf("occupancy", where,
			"liveWarps=%d, warp table holds %d", sm.liveWarps, live))
	}

	activeBlocks, shmemUsed := 0, 0
	for bi := range sm.blocks {
		b := &sm.blocks[bi]
		if !b.active {
			continue
		}
		activeBlocks++
		shmemUsed += b.sharedBytes
		if b.warpsTotal != len(b.warpIdxs) {
			vs = append(vs, audit.Violationf("residency", where,
				"block %d warpsTotal=%d but holds %d warp indices", bi, b.warpsTotal, len(b.warpIdxs)))
		}
		exited, atBarrier := 0, 0
		for _, wi := range b.warpIdxs {
			if int(wi) < 0 || int(wi) >= len(sm.warps) {
				vs = append(vs, audit.Violationf("residency", where,
					"block %d references warp %d of %d", bi, wi, len(sm.warps)))
				continue
			}
			switch sm.warps[wi].State {
			case WarpFinished:
				exited++
			case WarpAtBarrier:
				atBarrier++
			}
		}
		if exited != b.warpsExited {
			vs = append(vs, audit.Violationf("residency", where,
				"block %d warpsExited=%d, warp table holds %d", bi, b.warpsExited, exited))
		}
		if atBarrier != b.barrierWaiting {
			vs = append(vs, audit.Violationf("residency", where,
				"block %d barrierWaiting=%d, warp table holds %d", bi, b.barrierWaiting, atBarrier))
		}
	}
	if activeBlocks != sm.residentBlocks {
		vs = append(vs, audit.Violationf("occupancy", where,
			"residentBlocks=%d, block table holds %d", sm.residentBlocks, activeBlocks))
	}
	if want := sm.cfg.SharedMemKBPerSM*1024 - shmemUsed; want != sm.freeShmem {
		vs = append(vs, audit.Violationf("shmem", where,
			"freeShmem=%d, active blocks imply %d", sm.freeShmem, want))
	}

	// Per-sub-core occupancy and register-budget conservation.
	for _, sc := range sm.subcores {
		sub := fmt.Sprintf("%s/sub%d", where, sc.id)
		used, regUsed := 0, 0
		for slot, wi := range sc.slots {
			if wi < 0 {
				continue
			}
			used++
			if int(wi) >= len(sm.warps) || sm.warps[wi].State == WarpEmpty {
				vs = append(vs, audit.Violationf("occupancy", sub,
					"slot %d holds warp %d, which is empty or out of range", slot, wi))
				continue
			}
			w := &sm.warps[wi]
			if int(w.BlockSlot) >= 0 && int(w.BlockSlot) < len(sm.blocks) && sm.blocks[w.BlockSlot].active {
				regUsed += isa.WarpRegBytes(sm.blocks[w.BlockSlot].regsPerThread)
			}
		}
		if used != sc.used {
			vs = append(vs, audit.Violationf("occupancy", sub,
				"used=%d, slot table holds %d", sc.used, used))
		}
		if want := sm.cfg.RegFileKBPerSubCore*1024 - regUsed; want != sc.freeRegBytes {
			vs = append(vs, audit.Violationf("regbudget", sub,
				"freeRegBytes=%d, hosted warps imply %d", sc.freeRegBytes, want))
		}
		// Sleep is derived from the ready set: a clear awake bit is a
		// quiescent sub-core, its clock behind the SM's; a set one keeps step.
		asleep := sm.sleeps(sc.id)
		if asleep && !sc.quiescent(sm.synced) {
			vs = append(vs, audit.Violationf("readyset", sub,
				"asleep with work to do (ready %#x, decode %#x, collector drained: %t) — Tick would skip it",
				sc.rs.ready, sc.rs.decode, sc.coll.Drained()))
		}
		if c := sc.coll.Cycle(); c > sm.synced || c < sm.synced && !asleep {
			vs = append(vs, audit.Violationf("readyset", sub,
				"clock reads cycle %d (asleep: %t), the SM's %d — cycles would be charged twice or never", c, asleep, sm.synced))
		}
		if want := sc.scanReadySet(); want != sc.rs {
			for _, m := range [...]struct {
				name      string
				got, want uint64
			}{
				{"active", sc.rs.active, want.active},
				{"atBarrier", sc.rs.atBarrier, want.atBarrier},
				{"finished", sc.rs.finished, want.finished},
				{"ready", sc.rs.ready, want.ready},
				{"hazard", sc.rs.hazard, want.hazard},
				{"decode", sc.rs.decode, want.decode},
				{"needCU", sc.rs.needCU, want.needCU},
			} {
				if m.got != m.want {
					vs = append(vs, audit.Violationf("readyset", sub,
						"%s mask %#x, but the warps imply %#x — a missed reclass", m.name, m.got, m.want))
				}
			}
			if want.banks != sc.rs.banks {
				vs = append(vs, audit.Violationf("readyset", sub,
					"cached head source banks disagree with the warps' instruction buffers"))
			}
			if want.age != sc.rs.age {
				vs = append(vs, audit.Violationf("readyset", sub,
					"cached ages disagree with the ready warps' — the scheduler would order them wrongly"))
			}
		}
	}

	// LSU bounds.
	if len(sm.lsu.queue) > sm.lsu.capacity {
		vs = append(vs, audit.Violationf("lsu", where,
			"queue holds %d entries, capacity %d", len(sm.lsu.queue), sm.lsu.capacity))
	}
	for i := range sm.lsu.queue {
		en := &sm.lsu.queue[i]
		if int(en.warpIdx) < 0 || int(en.warpIdx) >= len(sm.warps) ||
			sm.warps[en.warpIdx].State == WarpEmpty {
			vs = append(vs, audit.Violationf("lsu", where,
				"queue entry %d references warp %d, which is empty or out of range", i, en.warpIdx))
		}
	}
	return vs
}

// scanReadySet derives the sub-core's ready set from scratch: the full
// slot scan the issue stage used to run every cycle, kept as the reference
// the readyset law and the differential test hold the maintained set to.
func (sc *SubCore) scanReadySet() readySet {
	var rs readySet
	for slot, wi := range sc.slots {
		if wi >= 0 && int(wi) < len(sc.sm.warps) {
			rs.set(slot, &sc.sm.warps[wi], sc.cfg.BanksPerSubCore)
		}
	}
	return rs
}

// CorruptReadySetForTest seeds a guaranteed-detectable ready-set
// inconsistency: slot 0 of sub-core 0 flips in the ready mask, whatever
// its warp's state. Never call outside tests.
func (sm *SM) CorruptReadySetForTest() {
	sm.subcores[0].rs.ready ^= 1
}

// CorruptLeaseForTest seeds a collector lease inconsistency in sub-core 0
// (see regfile.Collector.CorruptLeaseForTest). Never call outside tests.
func (sm *SM) CorruptLeaseForTest() {
	sm.subcores[0].coll.CorruptLeaseForTest()
}

// CorruptScoreboardForTest seeds a guaranteed-detectable scoreboard
// inconsistency — a pending bit with no in-flight writer — in the first
// active warp. Returns false when the SM has no active warp to corrupt.
// Never call outside tests.
func (sm *SM) CorruptScoreboardForTest() bool {
	for i := range sm.warps {
		w := &sm.warps[i]
		if w.State != WarpActive {
			continue
		}
		for r := isa.Reg(0); r < 256; r++ {
			if !w.SBPending(r) {
				w.SBSet(r)
				// Keep the corruption to the one law it targets.
				sm.subcores[w.SubCore].reclass(int(w.SchedSlot))
				return true
			}
		}
	}
	return false
}
