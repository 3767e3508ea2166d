package smcore

import (
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/regfile"
	"repro/internal/trace"
)

// lsuEntry is one memory instruction queued at the SM-shared LSU.
type lsuEntry struct {
	warpIdx int32
	subCore int8
	in      isa.Instr
}

// LSU is the SM-shared load/store unit. All four sub-cores feed one LSU
// (as on Volta), making it a shared resource the partitioning does not
// split. It admits cfg.LSUWidthPerSM instructions per cycle, serializes
// their line transactions through a single coalescer port, and schedules
// writebacks for loads.
type LSU struct {
	sm *SM
	lsuState
	capacity int
	tr       *trace.SMT

	// sharedBase sequences synthetic shared-memory "addresses" only for
	// conflict-degree modeling.
	lat struct {
		shared   int64
		constant int64
	}
}

// lsuState is the LSU's mutable state: plain data only, walked whole by
// snapshot.State (snapshot.go).
type lsuState struct {
	queue    []lsuEntry
	portFree int64 // coalescer occupancy (1 transaction per cycle)
}

func newLSU(sm *SM, capacity int) *LSU {
	l := &LSU{sm: sm, capacity: capacity}
	l.lat.shared = 24
	l.lat.constant = 8
	return l
}

// enqueue accepts a memory instruction from a sub-core dispatch port;
// false when the queue is full (the collector unit stays staged).
func (l *LSU) enqueue(warpIdx int32, subCore int, in isa.Instr) bool {
	if len(l.queue) >= l.capacity {
		return false
	}
	l.queue = append(l.queue, lsuEntry{warpIdx: warpIdx, subCore: int8(subCore), in: in})
	return true
}

// tick admits up to width instructions whose transactions the coalescer
// port can start this cycle.
func (l *LSU) tick(now int64) {
	width := l.sm.cfg.LSUWidthPerSM
	for n := 0; n < width && len(l.queue) > 0; n++ {
		if l.portFree > now {
			return // coalescer still busy with a previous burst
		}
		e := l.queue[0]
		copy(l.queue, l.queue[1:])
		l.queue = l.queue[:len(l.queue)-1]
		l.serve(&e, now)
	}
}

// serve executes one memory instruction: synthesizes its line addresses,
// charges coalescer occupancy, walks the hierarchy, and schedules the
// load writeback.
func (l *LSU) serve(e *lsuEntry, now int64) {
	w := &l.sm.warps[e.warpIdx]
	in := &e.in
	w.MemCounter++
	if l.tr != nil {
		l.tr.Emit(trace.KLSUAdmit, e.subCore, e.warpIdx, int32(in.Op), 0)
	}
	switch in.Op.SpaceOf() {
	case isa.SpaceGlobal:
		n := mem.Transactions(in.Mem, l.sm.cfg.LineBytes)
		if l.tr != nil {
			l.tr.Emit(trace.KCoalesce, e.subCore, e.warpIdx, int32(n), 0)
		}
		start := now
		if l.portFree > start {
			start = l.portFree
		}
		l.portFree = start + int64(n)
		write := in.Op == isa.OpSTG
		done := start
		for i := 0; i < n; i++ {
			addr := l.address(w, in, i)
			d := l.sm.hier.AccessGlobal(l.sm.id, addr, write, start+int64(i))
			if d > done {
				done = d
			}
		}
		if !write && in.Dst.Valid() {
			l.scheduleLoadWB(e, done)
		}
	case isa.SpaceShared:
		d := sharedConflictDegree(in.Mem, l.sm.cfg.SharedMemBanks)
		l.portFree = now + int64(d)
		if d > 1 {
			l.sm.st.SharedConflicts += int64(d - 1)
		}
		if in.Op == isa.OpLDS && in.Dst.Valid() {
			l.scheduleLoadWB(e, now+l.lat.shared+int64(d))
		}
	case isa.SpaceConst:
		l.portFree = now + 1
		if in.Dst.Valid() {
			l.scheduleLoadWB(e, now+l.lat.constant)
		}
	default:
		l.portFree = now + 1
	}
}

func (l *LSU) scheduleLoadWB(e *lsuEntry, done int64) {
	w := &l.sm.warps[e.warpIdx]
	sc := l.sm.subcores[e.subCore]
	bank := bankOfWarpReg(sc, w, e.in.Dst)
	l.sm.scheduleWriteback(done, e.warpIdx, e.in.Dst, bank, int(e.subCore))
}

// address synthesizes the i-th line address of a warp-wide access. The
// scheme gives each warp a private region (spaced 16 MB apart) unless the
// trait marks the footprint kernel-shared, in which case all warps walk a
// common region — producing realistic L1/L2 reuse without traces.
func (l *LSU) address(w *Warp, in *isa.Instr, i int) uint64 {
	line := uint64(l.sm.cfg.LineBytes)
	foot := uint64(in.Mem.Footprint)
	if foot < line {
		foot = line
	}
	lines := foot / line
	var base uint64
	if in.Mem.Shared {
		base = 1 << 40
	} else {
		base = (uint64(w.GID) + 1) << 24
	}
	var idx uint64
	switch in.Mem.Pattern {
	case isa.PatRandom:
		idx = w.NextRand() % lines
	case isa.PatBroadcast:
		idx = uint64(w.MemCounter) % lines
	default:
		// Streaming: consecutive accesses walk consecutive lines.
		idx = uint64(w.MemCounter) % lines
	}
	return base + (idx+uint64(i))%lines*line
}

// sharedConflictDegree models scratchpad bank conflicts: the number of
// serialized bank cycles a warp-wide shared access needs.
func sharedConflictDegree(t isa.MemTrait, banks int) int {
	switch t.Pattern {
	case isa.PatBroadcast, isa.PatCoalesced:
		return 1
	case isa.PatStrided:
		words := int(t.StrideBytes) / 4
		if words < 1 {
			words = 1
		}
		// Power-of-two strides of s words conflict s-way (classic rule);
		// odd strides are conflict-free.
		if words&(words-1) == 0 {
			if words > banks {
				words = banks
			}
			return words
		}
		return 1
	case isa.PatRandom:
		// Random permutations average ~e/(e-1) ≈ 2-way serialization on
		// 32 banks; charge 2.
		return 2
	default:
		return 1
	}
}

// bankOfWarpReg computes the destination bank for a warp register in its
// sub-core's file.
func bankOfWarpReg(sc *SubCore, w *Warp, r isa.Reg) int8 {
	return int8(regfile.BankWithOffset(int(w.BankOff), r, sc.cfg.BanksPerSubCore))
}

// pending reports queued entries (for drain checks).
func (l *LSU) pending() int { return len(l.queue) }
