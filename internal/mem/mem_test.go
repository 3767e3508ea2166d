package mem

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/isa"
)

func TestCacheHitMiss(t *testing.T) {
	c := NewCache(1, 2, 128) // 8 lines, 4 sets x 2 ways
	if c.Access(0, false) {
		t.Error("cold access hit")
	}
	if !c.Access(0, false) {
		t.Error("second access missed")
	}
	if !c.Access(64, false) {
		t.Error("same-line access missed")
	}
	if c.Hits != 2 || c.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 2/1", c.Hits, c.Misses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(1, 2, 128) // 4 sets, 2 ways; set = line % 4
	// Three lines mapping to set 0: lines 0, 4, 8 (addresses 0, 512, 1024).
	c.Access(0, false)
	c.Access(512, false)
	c.Access(0, false)    // touch line 0 -> line 4 is LRU
	c.Access(1024, false) // evicts line 4
	if !c.Access(0, false) {
		t.Error("line 0 should have survived (MRU)")
	}
	if c.Access(512, false) {
		t.Error("line 4 should have been evicted")
	}
}

func TestCacheWriteNoAllocate(t *testing.T) {
	c := NewCache(1, 2, 128)
	if c.Access(0, true) {
		t.Error("write to cold line reported hit")
	}
	if c.Access(0, false) {
		t.Error("write must not allocate")
	}
	if c.Hits+c.Misses != 1 {
		t.Error("writes must not count in read hit/miss stats")
	}
}

func TestCacheDegenerateShapes(t *testing.T) {
	c := NewCache(0, 0, 128) // clamps to 1 set, 1 way
	c.Access(0, false)
	if !c.Access(0, false) {
		t.Error("1-entry cache must still hit")
	}
}

func smallCfg() config.GPU {
	g := config.VoltaV100()
	g.NumSMs = 2
	return g
}

func TestHierarchyL1HitLatency(t *testing.T) {
	h := NewHierarchy(smallCfg())
	first := h.AccessGlobal(0, 0, false, 0)
	if first <= h.L1HitLatency {
		t.Errorf("cold access done at %d, want beyond L1 latency", first)
	}
	hit := h.AccessGlobal(0, 0, false, first)
	if hit != first+h.L1HitLatency {
		t.Errorf("hit done at %d, want %d", hit, first+h.L1HitLatency)
	}
}

func TestHierarchyMSHRMerge(t *testing.T) {
	h := NewHierarchy(smallCfg())
	a := h.AccessGlobal(0, 4096, false, 0)
	b := h.AccessGlobal(0, 4096+64, false, 1) // same 128B line, outstanding
	if b != a {
		t.Errorf("merged miss done at %d, want %d", b, a)
	}
}

func TestHierarchyL2SharedAcrossSMs(t *testing.T) {
	h := NewHierarchy(smallCfg())
	done0 := h.AccessGlobal(0, 8192, false, 0)
	// SM 1 misses its own L1 but should hit the now-filled L2.
	done1 := h.AccessGlobal(1, 8192, false, done0)
	coldRef := h.AccessGlobal(0, 1<<20, false, done0)
	if done1-done0 >= coldRef-done0 {
		t.Errorf("L2 hit (%d cycles) not faster than DRAM path (%d cycles)", done1-done0, coldRef-done0)
	}
}

func TestHierarchyStoresDoNotBlock(t *testing.T) {
	h := NewHierarchy(smallCfg())
	if done := h.AccessGlobal(0, 0, true, 10); done != 11 {
		t.Errorf("store completed at %d, want 11", done)
	}
}

func TestDRAMBandwidthQueueing(t *testing.T) {
	g := smallCfg()
	g.DRAMBytesPerCycle = 16 // 8 cycles per 128B line
	g.L2BytesPerCycle = 1 << 20
	h := NewHierarchy(g)
	// Saturate: many distinct-line misses at the same cycle must finish at
	// increasing times.
	var prev int64
	for i := 0; i < 8; i++ {
		done := h.AccessGlobal(0, uint64(i)<<20, false, 0)
		if i > 0 && done <= prev {
			t.Fatalf("request %d done at %d, not after previous %d", i, done, prev)
		}
		prev = done
	}
}

// TestBWChannelServeContract pins serve's completion contract on both
// paths: the returned cycle is when the line finishes draining. On the
// fractional path (bytes/cycle > line) a transaction ending exactly on a
// cycle boundary completes at nextFree — the historical unconditional
// +1 over-charged every boundary-aligned transaction.
func TestBWChannelServeContract(t *testing.T) {
	cases := []struct {
		name          string
		bytesPerCycle int
		want          []int64 // serve results for back-to-back calls at now=0
	}{
		// Integral path: 128/16 = 8 cycles per line.
		{"integral-8cyc", 16, []int64{8, 16, 24}},
		// Integral with remainder: ceil(128/100) = 2 cycles per line.
		{"integral-roundup", 100, []int64{2, 4}},
		// Fractional, 4 lines/cycle: the 4th line lands exactly on the
		// cycle-1 boundary and completes there, not at 2.
		{"fractional-4-per-cycle", 512, []int64{1, 1, 1, 1, 2, 2, 2, 2}},
		// Fractional, 3 lines/cycle.
		{"fractional-3-per-cycle", 384, []int64{1, 1, 1, 2}},
		// The V100 L2 shape: 1280 B/cycle, 10 lines per cycle.
		{"fractional-v100-l2", 1280, []int64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ch := newBWChannel(tc.bytesPerCycle, 128)
			var prev int64
			for i, want := range tc.want {
				got := ch.serve(0)
				if got != want {
					t.Errorf("serve #%d = %d, want %d", i, got, want)
				}
				if got < prev {
					t.Errorf("serve #%d = %d went backwards from %d", i, got, prev)
				}
				prev = got
			}
		})
	}
}

// An idle gap resets fractional accumulation: a channel that has fully
// drained must not carry partial-cycle credit into later traffic.
func TestBWChannelIdleResetsFraction(t *testing.T) {
	ch := newBWChannel(512, 128)
	if got := ch.serve(0); got != 1 {
		t.Fatalf("first line done at %d, want 1", got)
	}
	// Long idle gap; a fresh line at cycle 10 drains during cycle 11 and
	// must not complete early on the stale fracPending from cycle 0.
	if got := ch.serve(10); got != 11 {
		t.Errorf("post-idle line done at %d, want 11", got)
	}
}

func TestBWChannelFractional(t *testing.T) {
	// 512 B/cycle channel with 128 B lines: 4 lines per cycle.
	ch := newBWChannel(512, 128)
	var last int64
	for i := 0; i < 8; i++ {
		last = ch.serve(0)
	}
	// 8 lines at 4/cycle -> drains within ~2 cycles.
	if last > 3 {
		t.Errorf("8 lines drained at %d, want <= 3", last)
	}
}

func TestTransactions(t *testing.T) {
	const line = 128
	cases := []struct {
		name string
		t    isa.MemTrait
		want int
	}{
		{"coalesced", isa.MemTrait{Pattern: isa.PatCoalesced}, 1},
		{"broadcast", isa.MemTrait{Pattern: isa.PatBroadcast}, 1},
		{"stride8", isa.MemTrait{Pattern: isa.PatStrided, StrideBytes: 8}, 2},
		{"stride128", isa.MemTrait{Pattern: isa.PatStrided, StrideBytes: 128}, 32},
		{"stride-large", isa.MemTrait{Pattern: isa.PatStrided, StrideBytes: 4096}, 32},
		{"random", isa.MemTrait{Pattern: isa.PatRandom, Footprint: 1 << 20}, 32},
		{"random-small", isa.MemTrait{Pattern: isa.PatRandom, Footprint: 512}, 4},
		{"none", isa.MemTrait{}, 1},
	}
	for _, c := range cases {
		if got := Transactions(c.t, line); got != c.want {
			t.Errorf("%s: Transactions = %d, want %d", c.name, got, c.want)
		}
	}
}

// Property: transactions are always within [1, 32] for any trait.
func TestTransactionsBoundsProperty(t *testing.T) {
	f := func(pat uint8, foot uint32, stride uint32) bool {
		tr := isa.MemTrait{Pattern: isa.Pattern(pat % 5), Footprint: foot, StrideBytes: stride}
		n := Transactions(tr, 128)
		return n >= 1 && n <= 32
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: completion time is never before request time and is
// monotonically consistent for back-to-back same-SM accesses.
func TestHierarchyCausalityProperty(t *testing.T) {
	f := func(addrs []uint32) bool {
		h := NewHierarchy(smallCfg())
		now := int64(0)
		for _, a := range addrs {
			done := h.AccessGlobal(0, uint64(a), false, now)
			if done <= now {
				return false
			}
			now++
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// refMSHR is the map+heap MSHR the table replaced, kept verbatim as the
// reference TestMSHRMatchesReference holds the table to.
type refMSHR struct {
	pending map[uint64]int64 // line -> completion cycle
	// byDone orders the fills by completion so retiring the completed ones
	// and NextEvent read the earliest off the top instead of walking the
	// map. It holds a row for every pending entry, plus stale rows — the
	// entry was deleted by lookup or overwritten by a later fill — which
	// are dropped when they surface. Derived from pending: rebuilt on
	// restore.
	byDone fillHeap
}

// fillHeap is a typed binary min-heap on done, the shape of smcore's
// wbHeap and for the same reason: push and pop run on the per-access path.
type fillHeap []fill

func (h *fillHeap) push(f fill) {
	q := append(*h, f)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if q[parent].done <= q[i].done {
			break
		}
		q[parent], q[i] = q[i], q[parent]
		i = parent
	}
	*h = q
}

func (h *fillHeap) pop() {
	q := *h
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	i := 0
	for {
		small := i
		if l := 2*i + 1; l < n && q[l].done < q[small].done {
			small = l
		}
		if r := 2*i + 2; r < n && q[r].done < q[small].done {
			small = r
		}
		if small == i {
			break
		}
		q[i], q[small] = q[small], q[i]
		i = small
	}
	*h = q
}

func newRefMSHR() *refMSHR {
	return &refMSHR{pending: make(map[uint64]int64)}
}

// nextEvent returns the earliest pending completion strictly after now,
// or NeverCycle, retiring every fill that completed at or before now on
// the way — so neither the map nor the heap accumulates dead lines.
func (m *refMSHR) nextEvent(now int64) int64 {
	for len(m.byDone) > 0 {
		top := m.byDone[0]
		done, ok := m.pending[top.line]
		switch {
		case !ok || done != top.done:
			// stale row
		case done <= now:
			delete(m.pending, top.line)
		default:
			return done
		}
		m.byDone.pop()
	}
	return NeverCycle
}

func (m *refMSHR) lookup(line uint64, now int64) (int64, bool) {
	done, ok := m.pending[line]
	if !ok {
		return 0, false
	}
	if done <= now {
		delete(m.pending, line)
		return 0, false
	}
	return done, true
}

// insert records a fill issued at now. It retires completed fills first —
// the device loop never probes nextEvent, so this is where the map and the
// heap shed the misses that have landed, at cycles that depend on the
// access stream alone and not on which cycles any SM slept through.
func (m *refMSHR) insert(line uint64, done, now int64) {
	m.nextEvent(now)
	m.pending[line] = done
	m.byDone.push(fill{done: done, line: line})
}

// fills appends to rows the pending fills as a frame carries them: one row per
// line, ascending, so equal MSHR states give equal bytes whatever order
// their misses arrived in. The rows are read off the completion heap —
// every pending fill has one there; stale rows and duplicates are dropped —
// because ranging over the map would visit them in no fixed order.
func (m *refMSHR) fills(rows []fill) []fill {
	for _, r := range m.byDone {
		if done, ok := m.pending[r.line]; ok && done == r.done {
			rows = append(rows, r)
		}
	}
	slices.SortFunc(rows, func(a, b fill) int { return cmp.Compare(a.line, b.line) })
	return slices.Compact(rows) // same line and both live: identical rows
}

// TestMSHRMatchesReference drives the table and the map+heap reference with
// the stream the device gives them: each cycle, four SMs in order, each
// admitting one warp-wide access whose line transactions run at offsets
// 0…n-1; a transaction probes its SM's L1 MSHR at its cycle and, on a miss,
// the shared L2 MSHR 28 cycles later, and inserts into both at its cycle —
// so the L2's same-cycle nows are not in time order. As in AccessGlobal,
// each insert writes the slot its table's lookup returned, the L2's insert
// falling between the L1's lookup and insert. Latencies include 0, where a
// fill can land before an earlier same-cycle insert's now. Every return
// value, and the frame rows, must match after every step; a restore from
// those rows must keep matching.
func TestMSHRMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name          string
		lat, lineSpan int64
	}{
		{"v100-latency", 410, 1 << 10},
		{"zero-latency", 0, 1 << 9},
		{"zero-latency-hot", 0, 48},
		{"short-latency", 3, 1 << 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(uint64(tc.lat), uint64(tc.lineSpan)))
			const sms = 4
			var tab [sms + 1]*mshr
			var ref [sms + 1]*refMSHR
			for i := range tab {
				tab[i], ref[i] = newMSHR(), newRefMSHR()
			}
			step, early := 0, 0
			check := func(m int, what string, got, want any) {
				t.Helper()
				step++
				if got != want {
					t.Fatalf("step %d, mshr %d, %s: table %v, reference %v", step, m, what, got, want)
				}
				if g, w := tab[m].fills(nil), ref[m].fills(nil); !slices.Equal(g, w) {
					t.Fatalf("step %d, mshr %d, after %s: table rows %v, reference %v", step, m, what, g, w)
				}
			}
			probe := func(m int, line uint64, at int64) (int, int64, bool) {
				slot, d, ok := tab[m].lookup(line, at)
				rd, rok := ref[m].lookup(line, at)
				check(m, fmt.Sprintf("lookup(%d, %d)", line, at), [2]any{d, ok}, [2]any{rd, rok})
				return slot, d, ok
			}
			var portFree [sms]int64
			for cycle := int64(0); cycle < 1500; cycle++ {
				for sm := range sms {
					if portFree[sm] > cycle {
						continue // the LSU's coalescer port is still busy
					}
					n := int64(1 + rng.IntN(32))
					portFree[sm] = cycle + n
					for i := range n {
						now := cycle + i
						line := uint64(rng.Int64N(tc.lineSpan))
						l1slot, _, hit := probe(sm, line, now)
						if hit {
							continue
						}
						l2slot, done, merged := probe(sms, line, now+28)
						if !merged {
							done = now + 30 + tc.lat + rng.Int64N(8)
							if done <= tab[sms].retired {
								early++
							}
							tab[sms].insert(l2slot, line, done, now)
							ref[sms].insert(line, done, now)
							check(sms, "l2 insert", true, true)
						}
						tab[sm].insert(l1slot, line, done, now)
						ref[sm].insert(line, done, now)
						check(sm, "l1 insert", true, true)
					}
				}
				if rng.IntN(8) == 0 {
					m, at := rng.IntN(sms+1), cycle+rng.Int64N(40)
					check(m, fmt.Sprintf("nextEvent(%d)", at), tab[m].nextEvent(at), ref[m].nextEvent(at))
					if vs := tab[m].auditInto(nil, "t"); len(vs) != 0 {
						t.Fatalf("step %d: %v", step, vs)
					}
				}
				if rng.IntN(60) == 0 {
					m := rng.IntN(sms + 1)
					if err := tab[m].restore(ref[m].fills(nil)); err != nil {
						t.Fatal(err)
					}
					check(m, "restore", true, true)
				}
			}
			if tc.lat == 0 && early == 0 {
				t.Error("no fill landed below the L2's watermark: the stream never left time order")
			}
		})
	}
}
