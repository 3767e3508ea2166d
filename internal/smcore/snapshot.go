package smcore

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/snapshot"
)

// ProgramResolver maps a kernel-wide warp GID back to its instruction
// stream when a snapshot is restored. The gpu layer implements it from the
// in-flight kernels' block specs (programs are deterministic workload
// artifacts and are rebuilt, not serialized).
type ProgramResolver func(gid int64) (*program.Program, error)

// smFrame is the part of an SM a frame cannot carry in place: the assigner
// keeps its warp counter in package core, and a warp's cursor points into
// its program. The state structs (smState, lsuState, and per sub-core
// subCoreState, euState and the collector's) are walked where they live.
type smFrame struct {
	Assigner uint64
	// Warps holds the occupied warp slots only, in slot order: a free slot
	// carries nothing, and most of a frame's fields would be theirs.
	Warps []warpFrame
}

// warpFrame is one occupied warp slot with its cursor flattened to a
// position.
type warpFrame struct {
	Slot int32
	warpState
	Pos program.Pos
}

// EncodeState serializes the SM's full mutable state: every warp context
// (lifecycle, scoreboard, instruction buffer, cursor position, RNG),
// resident-block bookkeeping, the writeback heap, the LSU queue, and each
// sub-core (scheduler state, occupancy, execution-port timing, operand
// collector). Sync first: a frame carries no unticked cycles.
func (sm *SM) EncodeState(e *snapshot.Encoder) {
	f := smFrame{Assigner: sm.assigner.State(), Warps: make([]warpFrame, 0, sm.residentWarps)}
	for i := range sm.warps {
		w := &sm.warps[i]
		if w.State == WarpEmpty {
			continue
		}
		wf := warpFrame{Slot: int32(i), warpState: w.warpState, Pos: w.Cursor.Pos()}
		// Buffer entries past the fill level are dead residue of consumed
		// instructions; blank them so equal states give equal bytes.
		for j := int(wf.IBufN); j < len(wf.IBuf); j++ {
			wf.IBuf[j] = isa.Instr{}
		}
		f.Warps = append(f.Warps, wf)
	}
	e.State(&f, &sm.smState, &sm.lsu.lsuState)
	for _, sc := range sm.subcores {
		sched := sc.sched.State()
		e.State(&sched, &sc.subCoreState)
		for class := range sc.eu {
			e.State(&sc.eu[class].euState)
		}
		sc.coll.EncodeState(e)
	}
}

// RestoreState decodes into an SM freshly built from the same config (the
// walker checks the table shapes against it), rebinding each warp's program
// cursor through progFor. It does NOT run ResetForKernel — the restored
// scheduler and assigner state must survive.
func (sm *SM) RestoreState(d *snapshot.Decoder, progFor ProgramResolver) error {
	var f smFrame
	d.State(&f, &sm.smState, &sm.lsu.lsuState)
	if err := d.Err(); err != nil {
		return err
	}
	sm.assigner.SetState(f.Assigner)
	clear(sm.warps)
	next := int32(0)
	for i := range f.Warps {
		wf := &f.Warps[i]
		if wf.Slot < next || int(wf.Slot) >= len(sm.warps) {
			return fmt.Errorf("smcore: sm%d: snapshot warp slot %d out of order or beyond %d slots", sm.id, wf.Slot, len(sm.warps))
		}
		next = wf.Slot + 1
		if err := sm.restoreWarp(&sm.warps[wf.Slot], wf, progFor); err != nil {
			return fmt.Errorf("smcore: sm%d warp %d: %w", sm.id, wf.Slot, err)
		}
	}
	for i, e := range sm.wb {
		switch {
		case i > 0 && sm.wb[(i-1)/2].cycle > e.cycle:
			return fmt.Errorf("smcore: sm%d: snapshot writeback heap entry %d (cycle %d) precedes its parent", sm.id, i, e.cycle)
		case e.subCore < 0 || int(e.subCore) >= len(sm.subcores) || e.bank < 0 || int(e.bank) >= sm.cfg.BanksPerSubCore:
			return fmt.Errorf("smcore: sm%d: snapshot writeback heap entry %d names sub-core %d bank %d", sm.id, i, e.subCore, e.bank)
		case e.warpIdx < 0 || int(e.warpIdx) >= len(sm.warps) || sm.warps[e.warpIdx].State == WarpEmpty:
			return fmt.Errorf("smcore: sm%d: snapshot writeback heap entry %d names warp slot %d, which holds no warp", sm.id, i, e.warpIdx)
		}
	}
	if n := len(sm.lsu.queue); n > sm.lsu.capacity {
		return fmt.Errorf("smcore: snapshot LSU queue holds %d entries, capacity is %d", n, sm.lsu.capacity)
	}
	sm.lsu.queue = sm.lsu.backing[:copy(sm.lsu.backing, sm.lsu.queue)]
	sm.awake = 0 // derived: each sub-core's rest below writes its bit
	for _, sc := range sm.subcores {
		var sched uint64
		d.State(&sched, &sc.subCoreState)
		for class := range sc.eu {
			d.State(&sc.eu[class].euState)
		}
		if err := sc.coll.RestoreState(d); err != nil {
			return err
		}
		sc.sched.SetState(sched)
		// The ready set is derived: rebuild it from the restored slots.
		for slot, wi := range sc.slots {
			if wi < -1 || int(wi) >= len(sm.warps) {
				return fmt.Errorf("smcore: snapshot sub-core slot %d holds warp %d of %d", slot, wi, len(sm.warps))
			}
			sc.reclass(slot)
		}
		// So is sleep; and a frame is written from a synced SM, so no
		// sub-core's clock lags another's.
		sc.rest(sc.coll.Cycle())
		if c0, c := sm.subcores[0].coll.Cycle(), sc.coll.Cycle(); c != c0 {
			return fmt.Errorf("smcore: snapshot sub-core %d's clock reads cycle %d, sub-core 0's %d", sc.id, c, c0)
		}
	}
	// The SM's clock is derived too: the collectors carry it, and a frame
	// is written from a synced SM.
	sm.synced = sm.subcores[0].coll.Cycle()
	sm.wake = sm.NextEvent(sm.synced)
	return nil
}

// restoreWarp validates one decoded warp and rebinds its cursor.
func (sm *SM) restoreWarp(w *Warp, wf *warpFrame, progFor ProgramResolver) error {
	switch {
	case wf.State == WarpEmpty || wf.State > WarpFinished:
		return fmt.Errorf("invalid warp state %d", wf.State)
	case wf.IBufN < 0 || int(wf.IBufN) > len(wf.IBuf):
		return fmt.Errorf("instruction buffer fill %d out of [0,%d]", wf.IBufN, len(wf.IBuf))
	case wf.SubCore < 0 || int(wf.SubCore) >= len(sm.subcores):
		return fmt.Errorf("sub-core %d of %d", wf.SubCore, len(sm.subcores))
	}
	prog, err := progFor(wf.GID)
	if err != nil {
		return err
	}
	cur, err := prog.CursorAt(wf.Pos)
	if err != nil {
		return err
	}
	*w = Warp{warpState: wf.warpState, Cursor: cur}
	return nil
}
