package smcore

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/snapshot"
)

// Snapshot field manifests, checked by TestSnapshotCoverage via
// snapshot.Coverage: every field of the SM's state structs is either
// encoded here or carries the reason it need not be. Changing the encoded
// set requires a snapshot.Version bump.
var (
	smManifest = map[string]string{
		"id":             "skip: identity, fixed at construction",
		"cfg":            "skip: restore target is built from the same validated config",
		"warps":          "encoded",
		"blocks":         "encoded",
		"subcores":       "encoded",
		"assigner":       "encoded (policy state word)",
		"lsu":            "encoded",
		"hier":           "skip: serialized once at device level by gpu",
		"st":             "skip: stats pointer; stats.Run is serialized by gpu",
		"run":            "skip: stats pointer; stats.Run is serialized by gpu",
		"wb":             "encoded (heap layout preserved verbatim)",
		"freeShmem":      "encoded",
		"ageCounter":     "encoded",
		"rooms":          "skip: CanAccept scratch, rebuilt each probe",
		"auditSB":        "skip: Audit scratch, rewritten before every use",
		"residentWarps":  "encoded",
		"residentBlocks": "encoded",
		"liveWarps":      "encoded",
		"traceReads":     "skip: rewired by gpu.New from the run shape",
		"lastRegRead":    "encoded",
		"tr":             "skip: tracer wiring, reattached via SetTracer",
	}
	warpManifest = map[string]string{
		"State":      "encoded",
		"GID":        "encoded",
		"BlockSlot":  "encoded",
		"SubCore":    "encoded",
		"SchedSlot":  "encoded",
		"BankOff":    "encoded",
		"Age":        "encoded",
		"Cursor":     "encoded (as program.Pos; the program is rebuilt from the workload and rebound by GID)",
		"IBuf":       "encoded (first IBufN entries; the rest is dead)",
		"IBufN":      "encoded",
		"sb":         "encoded",
		"sbCount":    "encoded",
		"StolenCU":   "encoded",
		"MemCounter": "encoded",
		"rng":        "encoded",
	}
	blockManifest = map[string]string{
		"active":         "encoded",
		"kernelBlockID":  "encoded",
		"warpsTotal":     "encoded",
		"warpsExited":    "encoded",
		"barrierWaiting": "encoded",
		"warpIdxs":       "encoded",
		"regsPerThread":  "encoded",
		"sharedBytes":    "encoded",
	}
	wbEventManifest = map[string]string{
		"cycle":   "encoded",
		"warpIdx": "encoded",
		"reg":     "encoded",
		"bank":    "encoded",
		"subCore": "encoded",
	}
	subCoreManifest = map[string]string{
		"id":           "skip: identity, fixed at construction",
		"cfg":          "skip: restore target is built from the same validated config",
		"sm":           "skip: parent wiring",
		"slots":        "encoded",
		"used":         "encoded",
		"rs":           "skip: derived from warps, rebuilt on restore",
		"sched":        "encoded (policy state word)",
		"coll":         "encoded",
		"eu":           "encoded (per-pipe next-free cycles; widths derived from config)",
		"freeRegBytes": "encoded",
		"st":           "skip: stats pointer; stats.Run is serialized by gpu",
		"tr":           "skip: tracer wiring, reattached via SetTracer",
		"cands":        "skip: per-cycle scratch",
		"qlenBuf":      "skip: per-cycle scratch",
		"dispatchFn":   "skip: closure built at construction",
		"dispNow":      "skip: per-cycle scratch consumed within collectorTick",
		"dispPorts":    "skip: per-cycle scratch consumed within collectorTick",
	}
	execUnitManifest = map[string]string{
		"ii":    "skip: derived from config at construction",
		"ports": "encoded",
	}
	lsuManifest = map[string]string{
		"sm":       "skip: parent wiring",
		"queue":    "encoded",
		"capacity": "skip: derived from config at construction",
		"portFree": "encoded",
		"tr":       "skip: tracer wiring, reattached via SetTracer",
		"lat":      "skip: constants set by the constructor",
	}
	lsuEntryManifest = map[string]string{
		"warpIdx": "encoded",
		"subCore": "encoded",
		"in":      "encoded",
	}
)

// ProgramResolver maps a kernel-wide warp GID back to its instruction
// stream when a snapshot is restored. The gpu layer implements it from the
// in-flight kernels' block specs (programs are deterministic workload
// artifacts and are rebuilt, not serialized).
type ProgramResolver func(gid int64) (*program.Program, error)

// EncodeState serializes the SM's full mutable state: every warp context
// (lifecycle, scoreboard, instruction buffer, cursor position, RNG),
// resident-block bookkeeping, the writeback heap, the LSU queue, and each
// sub-core (scheduler state, occupancy, execution-port timing, operand
// collector).
func (sm *SM) EncodeState(e *snapshot.Encoder) {
	e.Section("sm")
	e.Varint(sm.ageCounter)
	e.Int(sm.freeShmem)
	e.Int(sm.residentWarps)
	e.Int(sm.residentBlocks)
	e.Int(sm.liveWarps)
	e.Varint(sm.lastRegRead)
	e.Uvarint(sm.assigner.State())
	e.Uvarint(uint64(len(sm.warps)))
	for i := range sm.warps {
		encodeWarp(e, &sm.warps[i])
	}
	e.Uvarint(uint64(len(sm.blocks)))
	for i := range sm.blocks {
		encodeBlock(e, &sm.blocks[i])
	}
	e.Uvarint(uint64(len(sm.wb)))
	for _, ev := range sm.wb {
		e.Varint(ev.cycle)
		e.Varint(int64(ev.warpIdx))
		e.Uvarint(uint64(ev.reg))
		e.Varint(int64(ev.bank))
		e.Varint(int64(ev.subCore))
	}
	e.Varint(sm.lsu.portFree)
	e.Uvarint(uint64(len(sm.lsu.queue)))
	for i := range sm.lsu.queue {
		en := &sm.lsu.queue[i]
		e.Varint(int64(en.warpIdx))
		e.Varint(int64(en.subCore))
		e.Instr(&en.in)
	}
	e.Uvarint(uint64(len(sm.subcores)))
	for _, sc := range sm.subcores {
		sc.encodeState(e)
	}
}

// RestoreState decodes into an SM freshly built from the same config,
// rebinding each warp's program cursor through progFor. It does NOT run
// ResetForKernel — the restored scheduler and assigner state must survive.
func (sm *SM) RestoreState(d *snapshot.Decoder, progFor ProgramResolver) error {
	d.Section("sm")
	sm.ageCounter = d.Varint()
	sm.freeShmem = d.Int()
	sm.residentWarps = d.Int()
	sm.residentBlocks = d.Int()
	sm.liveWarps = d.Int()
	sm.lastRegRead = d.Varint()
	sm.assigner.SetState(d.Uvarint())
	nw := d.Uvarint()
	if err := d.Err(); err != nil {
		return err
	}
	if int(nw) != len(sm.warps) {
		return fmt.Errorf("smcore: snapshot has %d warp slots, this config has %d", nw, len(sm.warps))
	}
	for i := range sm.warps {
		if err := decodeWarp(d, &sm.warps[i], progFor); err != nil {
			return fmt.Errorf("smcore: sm%d warp %d: %w", sm.id, i, err)
		}
	}
	nb := d.Uvarint()
	if err := d.Err(); err != nil {
		return err
	}
	if int(nb) != len(sm.blocks) {
		return fmt.Errorf("smcore: snapshot has %d block slots, this config has %d", nb, len(sm.blocks))
	}
	for i := range sm.blocks {
		decodeBlock(d, &sm.blocks[i])
	}
	nwb := int(d.Uvarint())
	if err := d.Err(); err != nil {
		return err
	}
	sm.wb = sm.wb[:0]
	for i := 0; i < nwb; i++ {
		sm.wb = append(sm.wb, wbEvent{
			cycle:   d.Varint(),
			warpIdx: int32(d.Varint()),
			reg:     isa.Reg(d.Uvarint()),
			bank:    int8(d.Varint()),
			subCore: int8(d.Varint()),
		})
	}
	sm.lsu.portFree = d.Varint()
	nq := int(d.Uvarint())
	if err := d.Err(); err != nil {
		return err
	}
	if nq > sm.lsu.capacity {
		return fmt.Errorf("smcore: snapshot LSU queue holds %d entries, capacity is %d", nq, sm.lsu.capacity)
	}
	sm.lsu.queue = sm.lsu.queue[:0]
	for i := 0; i < nq; i++ {
		sm.lsu.queue = append(sm.lsu.queue, lsuEntry{
			warpIdx: int32(d.Varint()),
			subCore: int8(d.Varint()),
			in:      d.Instr(),
		})
	}
	ns := d.Uvarint()
	if err := d.Err(); err != nil {
		return err
	}
	if int(ns) != len(sm.subcores) {
		return fmt.Errorf("smcore: snapshot has %d sub-cores, this config has %d", ns, len(sm.subcores))
	}
	for _, sc := range sm.subcores {
		if err := sc.restoreState(d); err != nil {
			return err
		}
		for slot := range sc.slots {
			sc.reclass(slot)
		}
	}
	return d.Err()
}

func encodeWarp(e *snapshot.Encoder, w *Warp) {
	e.Uvarint(uint64(w.State))
	if w.State == WarpEmpty {
		// Empty slots carry only dead residue from their last occupant;
		// encoding the state byte alone keeps snapshots canonical.
		return
	}
	e.Varint(w.GID)
	e.Varint(int64(w.BlockSlot))
	e.Varint(int64(w.SubCore))
	e.Varint(int64(w.SchedSlot))
	e.Varint(int64(w.BankOff))
	e.Varint(w.Age)
	pos := w.Cursor.Pos()
	e.Int(pos.Seg)
	e.Int(pos.Idx)
	e.Varint(pos.Trip)
	e.Varint(pos.Fetched)
	e.Varint(int64(w.IBufN))
	for i := 0; i < int(w.IBufN); i++ {
		e.Instr(&w.IBuf[i])
	}
	for _, word := range w.sb {
		e.Uvarint(word)
	}
	e.Varint(int64(w.sbCount))
	e.Varint(int64(w.StolenCU))
	e.Varint(w.MemCounter)
	e.Uvarint(w.rng)
}

func decodeWarp(d *snapshot.Decoder, w *Warp, progFor ProgramResolver) error {
	st := WarpState(d.Uvarint())
	if err := d.Err(); err != nil {
		return err
	}
	if st > WarpFinished {
		return fmt.Errorf("invalid warp state %d", st)
	}
	if st == WarpEmpty {
		*w = Warp{}
		return nil
	}
	*w = Warp{State: st}
	w.GID = d.Varint()
	w.BlockSlot = int32(d.Varint())
	w.SubCore = int8(d.Varint())
	w.SchedSlot = int16(d.Varint())
	w.BankOff = int16(d.Varint())
	w.Age = d.Varint()
	var pos program.Pos
	pos.Seg = d.Int()
	pos.Idx = d.Int()
	pos.Trip = d.Varint()
	pos.Fetched = d.Varint()
	w.IBufN = int8(d.Varint())
	if err := d.Err(); err != nil {
		return err
	}
	if w.IBufN < 0 || int(w.IBufN) > len(w.IBuf) {
		return fmt.Errorf("instruction buffer fill %d out of [0,%d]", w.IBufN, len(w.IBuf))
	}
	for i := 0; i < int(w.IBufN); i++ {
		w.IBuf[i] = d.Instr()
	}
	for i := range w.sb {
		w.sb[i] = d.Uvarint()
	}
	w.sbCount = int16(d.Varint())
	w.StolenCU = int8(d.Varint())
	w.MemCounter = d.Varint()
	w.rng = d.Uvarint()
	if err := d.Err(); err != nil {
		return err
	}
	prog, err := progFor(w.GID)
	if err != nil {
		return err
	}
	cur, err := prog.CursorAt(pos)
	if err != nil {
		return err
	}
	w.Cursor = cur
	return nil
}

func encodeBlock(e *snapshot.Encoder, b *block) {
	e.Bool(b.active)
	if !b.active {
		return
	}
	e.Int(b.kernelBlockID)
	e.Int(b.warpsTotal)
	e.Int(b.warpsExited)
	e.Int(b.barrierWaiting)
	e.Uvarint(uint64(len(b.warpIdxs)))
	for _, wi := range b.warpIdxs {
		e.Varint(int64(wi))
	}
	e.Int(b.regsPerThread)
	e.Int(b.sharedBytes)
}

func decodeBlock(d *snapshot.Decoder, b *block) {
	if !d.Bool() {
		*b = block{}
		return
	}
	*b = block{active: true}
	b.kernelBlockID = d.Int()
	b.warpsTotal = d.Int()
	b.warpsExited = d.Int()
	b.barrierWaiting = d.Int()
	n := int(d.Uvarint())
	if d.Err() != nil {
		return
	}
	b.warpIdxs = make([]int32, 0, n)
	for i := 0; i < n; i++ {
		b.warpIdxs = append(b.warpIdxs, int32(d.Varint()))
	}
	b.regsPerThread = d.Int()
	b.sharedBytes = d.Int()
}

func (sc *SubCore) encodeState(e *snapshot.Encoder) {
	e.Section("sub")
	e.Uvarint(sc.sched.State())
	e.Int(sc.used)
	e.Int(sc.freeRegBytes)
	e.Uvarint(uint64(len(sc.slots)))
	for _, s := range sc.slots {
		e.Varint(int64(s))
	}
	for class := range sc.eu {
		ports := sc.eu[class].ports
		e.Uvarint(uint64(len(ports)))
		for _, p := range ports {
			e.Varint(p)
		}
	}
	sc.coll.EncodeState(e)
}

func (sc *SubCore) restoreState(d *snapshot.Decoder) error {
	d.Section("sub")
	sc.sched.SetState(d.Uvarint())
	sc.used = d.Int()
	sc.freeRegBytes = d.Int()
	ns := d.Uvarint()
	if err := d.Err(); err != nil {
		return err
	}
	if int(ns) != len(sc.slots) {
		return fmt.Errorf("smcore: snapshot sub-core has %d slots, this config has %d", ns, len(sc.slots))
	}
	for i := range sc.slots {
		sc.slots[i] = int32(d.Varint())
		if wi := int(sc.slots[i]); wi < -1 || wi >= len(sc.sm.warps) {
			return fmt.Errorf("smcore: snapshot sub-core slot %d holds warp %d of %d", i, wi, len(sc.sm.warps))
		}
	}
	for class := range sc.eu {
		np := d.Uvarint()
		if err := d.Err(); err != nil {
			return err
		}
		ports := sc.eu[class].ports
		if int(np) != len(ports) {
			return fmt.Errorf("smcore: snapshot class-%d unit has %d ports, this config has %d", class, np, len(ports))
		}
		for i := range ports {
			ports[i] = d.Varint()
		}
	}
	return sc.coll.RestoreState(d)
}
