package mem

import (
	"math"

	"repro/internal/config"
	"repro/internal/isa"
)

// bwChannel models a bandwidth-limited service point (the L2 crossbar or
// the DRAM channels) as a single queue: each transaction occupies the
// channel for lineBytes/bytesPerCycle cycles and waits behind earlier
// traffic.
type bwChannel struct {
	cycPerLine int64
	fracNum    int64 // fractional accumulation when bytes/cycle > line
	fracDen    int64
	bwState
}

// bwState is a channel's mutable state (plain data, carried by
// snapshot.State); the rates above derive from the configuration.
type bwState struct {
	nextFree    int64
	fracPending int64
}

// newBWChannel takes a validated rate: config.Validate refuses one below 1.
func newBWChannel(bytesPerCycle, lineBytes int) *bwChannel {
	ch := &bwChannel{}
	if lineBytes >= bytesPerCycle {
		ch.cycPerLine = int64(lineBytes / bytesPerCycle)
		if lineBytes%bytesPerCycle != 0 {
			ch.cycPerLine++
		}
	} else {
		// Several lines fit in one cycle: accumulate fractional service.
		ch.cycPerLine = 0
		ch.fracNum = int64(lineBytes)
		ch.fracDen = int64(bytesPerCycle)
	}
	return ch
}

// serve books one line transaction at time now and returns the cycle the
// transaction completes service (excluding fixed latency).
func (ch *bwChannel) serve(now int64) int64 {
	if ch.nextFree < now {
		ch.nextFree = now
		ch.fracPending = 0
	}
	if ch.cycPerLine > 0 {
		ch.nextFree += ch.cycPerLine
		return ch.nextFree
	}
	ch.fracPending += ch.fracNum
	for ch.fracPending >= ch.fracDen {
		ch.fracPending -= ch.fracDen
		ch.nextFree++
	}
	// Completion contract (matching the integral path, which returns the
	// cycle the line finishes draining): a line ending exactly on a cycle
	// boundary (fracPending == 0) completes at nextFree; a line ending
	// mid-cycle drains during cycle nextFree+1. The historical
	// unconditional nextFree+1 over-charged every boundary-aligned
	// fractional transaction by one cycle.
	if ch.fracPending == 0 {
		return ch.nextFree
	}
	return ch.nextFree + 1
}

// mshr tracks outstanding line fills so that misses to an in-flight line
// merge instead of consuming bandwidth twice. It is an open-addressed,
// linear-probing table that drops a fill exactly when the fill stops
// pending: at a lookup that finds it complete, or at an insert or
// nextEvent whose now reaches it, through the watermark retired. A fill
// inserted at or below the watermark — the shared L2's same-cycle nows
// come from line offsets 0…31 of one SM after another — is early: stored
// negated, out of the watermark's reach, until a retire reaches earlyLo.
type mshr struct {
	keys, spareKeys []uint64 // line+1, 0 = never used; spare: the next rehash's target
	done, spareDone []int64  // completion cycle; 0 = dead; < 0 = early, negated
	used            int      // slots with a key
	retired         int64
	earlyLo         int64 // no early fill completes before it
}

// fill is one scheduled line-fill completion: a frame's MSHR row.
type fill struct {
	done int64
	line uint64
}

func newMSHR() *mshr {
	return &mshr{keys: make([]uint64, 16), done: make([]int64, 16), earlyLo: NeverCycle}
}

// slot returns line's slot, or the never-used slot that ends its probe
// from the home slot Fibonacci hashing gives it.
func (m *mshr) slot(line uint64) int {
	i := int(line*0x9E3779B97F4A7C15>>32) & (len(m.keys) - 1)
	for m.keys[i] != line+1 && m.keys[i] != 0 {
		i = (i + 1) & (len(m.keys) - 1)
	}
	return i
}

// at returns slot i's completion cycle if its fill is pending, else 0.
func (m *mshr) at(i int) int64 {
	if d := m.done[i]; d < 0 || d > m.retired {
		return max(d, -d)
	}
	return 0
}

func (m *mshr) retire(now int64) {
	m.retired = max(m.retired, now)
	if now >= m.earlyLo {
		m.earlyLo = NeverCycle
		for i, d := range m.done {
			if d < 0 && -d <= now {
				m.done[i] = 0
			} else if d < 0 {
				m.earlyLo = min(m.earlyLo, -d)
			}
		}
	}
}

// nextEvent retires every fill done by now and returns the earliest pending
// completion, or NeverCycle: a table scan, for the benchmark and the tests.
func (m *mshr) nextEvent(now int64) int64 {
	m.retire(now)
	next := NeverCycle
	for i := range m.done {
		if d := m.at(i); d > 0 {
			next = min(next, d)
		}
	}
	return next
}

// lookup returns the slot line's probe stops at, and line's completion
// cycle if its fill is still pending at now. The slot is insert's target
// for line until this table's next insert: retiring rewrites no key.
func (m *mshr) lookup(line uint64, now int64) (slot int, done int64, ok bool) {
	i := m.slot(line)
	if done := m.at(i); done > now {
		return i, done, true
	}
	m.done[i] = 0 // complete, dead already, or a never-used slot
	return i, 0, false
}

// insert records line's fill, issued at now, in slot i: the one lookup or
// slot gave for line. It retires completed fills first — the device loop
// never probes nextEvent, so this is where the table sheds the misses that
// have landed, at cycles that depend on the access stream alone and not on
// which cycles any SM slept through.
func (m *mshr) insert(i int, line uint64, done, now int64) {
	m.retire(now)
	if done <= m.retired {
		m.earlyLo, done = min(m.earlyLo, done), -done
	}
	m.put(i, line, done)
	if m.used*4 > len(m.keys)*3 {
		m.rehash(len(m.keys))
	}
}

func (m *mshr) put(i int, line uint64, d int64) {
	if m.keys[i] == 0 {
		m.used++
	}
	m.keys[i], m.done[i] = line+1, d
}

// rehash rebuilds the table, n slots, from its pending fills alone, doubling
// it while they fill over a quarter, into the spare arrays; the old become
// the next spare, so only a new high-water mark allocates.
func (m *mshr) rehash(n int) {
	keys, done := m.keys, m.done
	if cap(m.spareKeys) < n {
		m.spareKeys, m.spareDone = make([]uint64, n), make([]int64, n)
	}
	m.keys, m.spareKeys, m.done, m.spareDone = m.spareKeys[:n], keys, m.spareDone[:n], done
	clear(m.keys)
	clear(m.done)
	m.used = 0
	for i, k := range keys {
		if d := done[i]; d < 0 || d > m.retired {
			m.put(m.slot(k-1), k-1, d)
		}
	}
	if m.used*4 > n {
		m.rehash(2 * n)
	}
}

// Hierarchy is the full memory system: one L1 per SM, a shared L2, and
// DRAM. It is deliberately latency/bandwidth-analytic rather than
// event-driven: each access returns its completion cycle immediately, with
// queueing delays derived from channel occupancy. This keeps 112-app
// sweeps fast while preserving the relative pressure the paper's
// workloads exert.
type Hierarchy struct {
	cfg  config.GPU
	l1   []*Cache
	l1m  []*mshr
	l2   *Cache
	l2m  *mshr
	l2ch *bwChannel
	drch *bwChannel
	// fills is EncodeState's reusable MSHR-rows scratch.
	fills []fill

	// L1HitLatency is the load-use latency on an L1 hit (Volta ~28).
	L1HitLatency int64
}

// NewHierarchy builds the memory system for a configuration.
func NewHierarchy(cfg config.GPU) *Hierarchy {
	h := &Hierarchy{
		cfg:          cfg,
		l2:           NewCache(cfg.L2KB, cfg.L2Assoc, cfg.LineBytes),
		l2m:          newMSHR(),
		l2ch:         newBWChannel(cfg.L2BytesPerCycle, cfg.LineBytes),
		drch:         newBWChannel(cfg.DRAMBytesPerCycle, cfg.LineBytes),
		L1HitLatency: 28,
	}
	for i := 0; i < cfg.NumSMs; i++ {
		h.l1 = append(h.l1, NewCache(cfg.L1KBPerSM, cfg.L1Assoc, cfg.LineBytes))
		h.l1m = append(h.l1m, newMSHR())
	}
	return h
}

// L1 returns SM sm's L1 cache (for stats).
func (h *Hierarchy) L1(sm int) *Cache { return h.l1[sm] }

// L2Cache returns the shared L2 (for stats).
func (h *Hierarchy) L2Cache() *Cache { return h.l2 }

// AccessGlobal performs one 128-byte-line global access for SM sm at the
// given cycle and returns the cycle the data is available to the warp.
// Stores return the cycle the store is accepted (fire-and-forget).
func (h *Hierarchy) AccessGlobal(sm int, addr uint64, write bool, now int64) int64 {
	l1 := h.l1[sm]
	line := l1.LineOf(addr)
	if write {
		// Write-through: consume L2 bandwidth; the warp does not wait.
		h.l2.Access(addr, true)
		h.l2ch.serve(now)
		return now + 1
	}
	// A line with an in-flight fill reads as present in the tag array
	// (allocate-on-miss) but its data arrives with the fill: merge first.
	m := h.l1m[sm]
	slot, done, ok := m.lookup(line, now)
	if ok {
		l1.Access(addr, false) // touch LRU; counts as a hit-under-miss
		return done
	}
	if l1.Access(addr, false) {
		return now + h.L1HitLatency
	}
	done = h.accessL2(addr, now) // touches no L1 MSHR: slot stays line's
	m.insert(slot, line, done, now)
	return done
}

// accessL2 resolves an L1 miss taken at now; the request reaches the L2
// one L1 lookup later.
func (h *Hierarchy) accessL2(addr uint64, now int64) int64 {
	at := now + h.L1HitLatency
	line := h.l2.LineOf(addr)
	serveDone := h.l2ch.serve(at)
	if h.l2.Access(addr, false) {
		return serveDone + int64(h.cfg.L2Latency)
	}
	slot, done, ok := h.l2m.lookup(line, at)
	if ok {
		return done
	}
	done = h.drch.serve(serveDone+int64(h.cfg.L2Latency)) + int64(h.cfg.DRAMLatency)
	h.l2m.insert(slot, line, done, now)
	return done
}

// NeverCycle is the NextEvent sentinel for "no intrinsic future event":
// any real event cycle compares smaller.
const NeverCycle = int64(math.MaxInt64)

// NextEvent returns the earliest cycle strictly after now at which the
// memory system's time-indexed state changes: a bandwidth channel
// freeing, or an outstanding MSHR fill completing. It returns NeverCycle
// when nothing is in flight. The hierarchy is analytic (accesses resolve
// to completion cycles immediately), so these events never *initiate*
// work by themselves: every completion already sits in the requesting
// SM's writeback heap, and the device loop does not ask. The benchmark's
// layer driver does.
func (h *Hierarchy) NextEvent(now int64) int64 {
	next := NeverCycle
	if h.l2ch.nextFree > now && h.l2ch.nextFree < next {
		next = h.l2ch.nextFree
	}
	if h.drch.nextFree > now && h.drch.nextFree < next {
		next = h.drch.nextFree
	}
	if e := h.l2m.nextEvent(now); e < next {
		next = e
	}
	for _, m := range h.l1m {
		if e := m.nextEvent(now); e < next {
			next = e
		}
	}
	return next
}

// Transactions returns how many 128-byte line transactions a warp-wide
// access with the given trait generates — the coalescing model.
func Transactions(t isa.MemTrait, lineBytes int) int {
	switch t.Pattern {
	case isa.PatBroadcast:
		return 1
	case isa.PatCoalesced:
		// 32 threads x 4 bytes = 128 bytes = one line (or two if the line
		// is smaller).
		n := isa.WarpSize * 4 / lineBytes
		if n < 1 {
			n = 1
		}
		return n
	case isa.PatStrided:
		stride := int(t.StrideBytes)
		if stride < 4 {
			stride = 4
		}
		span := stride * isa.WarpSize
		n := span / lineBytes
		if span%lineBytes != 0 {
			n++
		}
		if n > isa.WarpSize {
			n = isa.WarpSize
		}
		if n < 1 {
			n = 1
		}
		return n
	case isa.PatRandom:
		// Each thread touches an unrelated line, bounded by the access's
		// divergence degree and the footprint.
		n := isa.WarpSize
		if t.Divergence > 0 && int(t.Divergence) < n {
			n = int(t.Divergence)
		}
		if t.Footprint > 0 {
			lines := int(t.Footprint) / lineBytes
			if lines < 1 {
				lines = 1
			}
			if lines < n {
				n = lines
			}
		}
		return n
	default:
		return 1
	}
}
