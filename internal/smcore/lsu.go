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
// split. It admits one instruction per cycle, serializes its line
// transactions through a single coalescer port, and schedules writebacks
// for loads.
type LSU struct {
	sm *SM
	lsuState
	capacity int
	// backing is what queue is a window over: twice capacity, so that a
	// queue kept full slides once per capacity admissions, not per one.
	backing []lsuEntry
	tr      *trace.SMT
}

// Load-use latencies of the scratchpad (before bank conflicts) and the
// constant cache.
const (
	sharedLatency = 24
	constLatency  = 8
)

// lsuState is the LSU's mutable state: plain data only, walked whole by
// snapshot.State (snapshot.go).
type lsuState struct {
	queue    []lsuEntry // the FIFO, oldest first
	portFree int64      // coalescer occupancy (1 transaction per cycle)
}

func newLSU(sm *SM, capacity int) *LSU {
	l := &LSU{sm: sm, capacity: capacity, backing: make([]lsuEntry, 2*capacity)}
	l.queue = l.backing[:0]
	return l
}

// enqueue accepts a memory instruction from a sub-core dispatch port;
// false when the queue is full (the collector unit stays staged). The
// window slides back to the front of backing only when it reaches the end.
func (l *LSU) enqueue(warpIdx int32, subCore int, in isa.Instr) bool {
	if len(l.queue) >= l.capacity {
		return false
	}
	if len(l.queue) == cap(l.queue) {
		l.queue = l.backing[:copy(l.backing, l.queue)]
	}
	l.queue = append(l.queue, lsuEntry{warpIdx: warpIdx, subCore: int8(subCore), in: in})
	return true
}

// serve admits and executes the oldest instruction: synthesizes its line
// addresses, charges coalescer occupancy, walks the hierarchy, and
// schedules the load writeback. SM.Tick calls it only with an instruction
// queued and the coalescer port free, so one per cycle at most: serve holds
// the port past now.
func (l *LSU) serve(now int64) {
	e := &l.queue[0] // stays put until an enqueue, and serve enqueues nothing
	l.queue = l.queue[1:]
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
		l.portFree = now + int64(n) // tick admits only onto a free port
		write := in.Op == isa.OpSTG
		done := now
		var addrs [isa.WarpSize]uint64
		for i, addr := range lineAddrs(addrs[:n], w, in, l.sm.cfg.LineBytes) {
			d := l.sm.hier.AccessGlobal(l.sm.id, addr, write, now+int64(i))
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
			l.scheduleLoadWB(e, now+sharedLatency+int64(d))
		}
	case isa.SpaceConst:
		l.portFree = now + 1
		if in.Dst.Valid() {
			l.scheduleLoadWB(e, now+constLatency)
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

// lineAddrs fills dst with the first len(dst) line addresses of a
// warp-wide access and returns it. The scheme gives each warp a private
// region (spaced 16 MB apart) unless the trait marks the footprint
// kernel-shared, in which case all warps walk a common region — producing
// realistic L1/L2 reuse without traces. Address i is line (idx+i) mod
// lines of the region: idx streams from the warp's access count, or is
// drawn afresh per line for a random pattern.
func lineAddrs(dst []uint64, w *Warp, in *isa.Instr, lineBytes int) []uint64 {
	line := uint64(lineBytes)
	lines := max(uint64(in.Mem.Footprint), line) / line
	base := uint64(1) << 40
	if !in.Mem.Shared {
		base = (uint64(w.GID) + 1) << 24
	}
	idx, off := uint64(w.MemCounter)%lines, uint64(0) // off = i mod lines
	for i := range dst {
		if in.Mem.Pattern == isa.PatRandom {
			idx = w.NextRand() % lines
		}
		k := idx + off
		if k >= lines {
			k -= lines
		}
		dst[i] = base + k*line
		if off++; off == lines {
			off = 0
		}
	}
	return dst
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
