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

// Audit re-derives the SM's conservation laws from first principles and
// reports every divergence from the live bookkeeping: the scoreboard, lease,
// occupancy, regbudget, shmem, lsu, residency and readyset rows of the
// auditor table (docs/ROBUSTNESS.md). It is read-only and safe to call
// between cycles (never mid-Tick); RestoreState ends with it.
func (sm *SM) Audit() []audit.Violation {
	var vs []audit.Violation
	where := fmt.Sprintf("sm%d", sm.id)

	// Reconstruct every warp's expected scoreboard from in-flight writers.
	// The scratch lives on the SM: the audit runs periodically from the
	// device heartbeat and must not allocate per sweep.
	if cap(sm.auditSB) < len(sm.warps) {
		sm.auditSB = make([][sbWords]uint64, len(sm.warps))
		sm.auditListed = make([]bool, len(sm.warps))
	}
	expected, listed := sm.auditSB[:len(sm.warps)], sm.auditListed[:len(sm.warps)]
	clear(expected)
	clear(listed)
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
			// Stolen CUs pre-allocate before issue: no SBSet yet. A staged
			// memory op holds its reservation only if the LSU will clear it.
			if !u.Stolen && u.Instr.Dst.Valid() && (u.Instr.Op.UnitOf() != isa.ClassMEM || willWriteBack(&u.Instr)) {
				mark(u.WarpIdx, u.Instr.Dst, "staged collector unit")
			}
			// A stolen unit holds its own warp's head, in the warp's sub-core.
			if u.Stolen {
				if int(u.WarpIdx) < 0 || int(u.WarpIdx) >= len(sm.warps) {
					vs = append(vs, audit.Violationf("lease", sub,
						"stolen cu%d references warp %d of %d", i, u.WarpIdx, len(sm.warps)))
				} else if w := &sm.warps[u.WarpIdx]; int(w.StolenCU) != i || int(w.SubCore) != sc.id || w.IBufN == 0 || *w.Cursor.Head() != u.Instr {
					vs = append(vs, audit.Violationf("lease", sub,
						"stolen cu%d held for warp %d (sub%d, StolenCU %d, %d buffered), which is not that warp's head instruction's unit",
						i, u.WarpIdx, w.SubCore, w.StolenCU, w.IBufN))
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
	}

	// Residency and occupancy tallies.
	activeBlocks, shmemUsed := 0, 0
	for bi := range sm.blocks {
		b := &sm.blocks[bi]
		if !b.active {
			continue
		}
		activeBlocks++
		shmemUsed += b.sharedBytes
		exited, atBarrier := 0, 0
		for _, wi := range b.warpIdxs {
			if int(wi) < 0 || int(wi) >= len(sm.warps) {
				vs = append(vs, audit.Violationf("residency", where,
					"block %d references warp %d of %d", bi, wi, len(sm.warps)))
				continue
			}
			if w := &sm.warps[wi]; w.State == WarpEmpty || int(w.BlockSlot) != bi || listed[wi] {
				vs = append(vs, audit.Violationf("residency", where,
					"block %d lists warp %d, which is empty, claims block %d, or was listed before", bi, wi, w.BlockSlot))
			}
			listed[wi] = true
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
	resident := 0
	for i := range sm.warps {
		w := &sm.warps[i]
		if w.State == WarpEmpty {
			continue
		}
		resident++
		if int(w.BlockSlot) < 0 || int(w.BlockSlot) >= len(sm.blocks) || !sm.blocks[w.BlockSlot].active {
			vs = append(vs, audit.Violationf("residency", where,
				"warp %d references inactive block slot %d", i, w.BlockSlot))
		} else if !listed[i] {
			vs = append(vs, audit.Violationf("residency", where,
				"warp %d claims block %d, which does not list it", i, w.BlockSlot))
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
			if int(w.SubCore) != sc.id || int(w.SchedSlot) != slot {
				vs = append(vs, audit.Violationf("occupancy", sub,
					"slot %d holds warp %d, which claims sub%d slot %d", slot, wi, w.SubCore, w.SchedSlot))
			}
			if int(w.BlockSlot) >= 0 && int(w.BlockSlot) < len(sm.blocks) && sm.blocks[w.BlockSlot].active {
				regUsed += isa.WarpRegBytes(sm.blocks[w.BlockSlot].regsPerThread)
			}
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
					"cached head source banks disagree with the warps' head instructions"))
			}
		}
		// The walk's order is every occupied slot once, oldest warp first.
		inOrder := len(sc.order) == used
		for i, s := range sc.order {
			inOrder = inOrder && int(s) < len(sc.slots) && sc.slots[s] >= 0 && int(sc.slots[s]) < len(sm.warps) &&
				(i == 0 || sm.warps[sc.slots[sc.order[i-1]]].Age < sm.warps[sc.slots[s]].Age)
		}
		if !inOrder {
			vs = append(vs, audit.Violationf("readyset", sub, "age order %v is not the occupied slots oldest warp first", sc.order))
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
