package smcore

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/isa"
	"repro/internal/regfile"
)

// swapHeap is wbHeap as it was before its sifts moved entries into a hole:
// push and pop verbatim, the reference TestWBHeapMatchesSwapHeap holds
// wbHeap.push and SM.drain to.
type swapHeap []wbEvent

func (h *swapHeap) push(e wbEvent) {
	q := append(*h, e)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if q[parent].cycle <= q[i].cycle {
			break
		}
		q[parent], q[i] = q[i], q[parent]
		i = parent
	}
	*h = q
}

func (h *swapHeap) pop() wbEvent {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	i := 0
	for {
		small := i
		if l := 2*i + 1; l < n && q[l].cycle < q[small].cycle {
			small = l
		}
		if r := 2*i + 2; r < n && q[r].cycle < q[small].cycle {
			small = r
		}
		if small == i {
			break
		}
		q[i], q[small] = q[small], q[i]
		i = small
	}
	*h = q
	return top
}

// TestWBHeapMatchesSwapHeap drives an SM's writeback heap — push, and the
// drain SM.Tick's first stage runs — and the swap heap with the same seeded
// streams. After every push and every drained cycle it compares the two
// arrays entry for entry, and the write queue of each (sub-core, bank) with
// the order the swap heap pops that cycle's events in. The array is not just
// a priority queue's storage: among writebacks due in one cycle it decides
// which reaches a bank's write port first, and a frame carries it. Events
// name warps whose sub-cores and bank offsets are drawn per seed, so they
// spread over four sub-cores and two banks, and the queue each event is
// expected in comes from its warp, as drain derives it. Their cycles come
// from a window a few cycles wide, so most comparisons tie — the only place
// a hole sift can differ from a swap sift. The heap grows to 512 entries and drains
// to none, one cycle at a time. Every sub-core sleeps before a drain, its
// awake bit cleared; one that receives a write must set its bit, and one
// that receives none must not. Tick drains only when the heap's root is due,
// and so does the test.
func TestWBHeapMatchesSwapHeap(t *testing.T) {
	sm, _ := testSM(t, nil)
	subs, banks, nw := len(sm.subcores), sm.cfg.BanksPerSubCore, int32(len(sm.warps))
	if subs != 4 || banks != 2 {
		t.Fatalf("fixture has %d sub-cores x %d banks, want 4 x 2", subs, banks)
	}
	wantQ := make([][]regfile.WriteReq, subs*banks)
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for i := range sm.warps {
			sm.warps[i].SubCore, sm.warps[i].BankOff = int8(rng.Intn(subs)), int16(rng.Intn(banks))
		}
		window := 1 + rng.Intn(8)
		sm.wb = sm.wb[:0]
		var want swapHeap
		now, seq := int64(0), int32(0)
		same := func(op string) {
			if !slices.Equal(sm.wb, []wbEvent(want)) {
				t.Fatalf("seed %d, cycle %d, after a %s (%d entries): hole heap %v, swap heap %v", seed, now, op, len(want), sm.wb, want)
			}
		}
		for round := 0; round < 40; round++ {
			for target := rng.Intn(513); len(want) < target; seq++ {
				e := wbEvent{cycle: now + int64(rng.Intn(window)), warpIdx: seq % nw, reg: isa.Reg(seq / nw % 256)}
				sm.wb.push(e)
				want.push(e)
				same("push")
			}
			for target := rng.Intn(len(want) + 1); len(want) > target; now++ {
				for i := range wantQ {
					wantQ[i] = wantQ[i][:0]
				}
				for len(want) > 0 && want[0].cycle <= now {
					e := want.pop()
					w := &sm.warps[e.warpIdx]
					bank := regfile.BankWithOffset(int(w.BankOff), e.reg, banks)
					q := int(w.SubCore)*banks + bank
					wantQ[q] = append(wantQ[q], regfile.WriteReq{WarpIdx: e.warpIdx, Reg: e.reg, Bank: int8(bank)})
				}
				for _, sc := range sm.subcores {
					sc.coll = regfile.NewCollector(sm.cfg.CollectorUnitsPerSubCore, banks, 0, sc.st)
				}
				sm.awake = 0
				if len(sm.wb) > 0 && sm.wb[0].cycle <= now {
					sm.drain(now)
				}
				same("drain")
				for s, sc := range sm.subcores {
					var got []regfile.WriteReq
					sc.coll.ForEachQueuedWrite(func(w regfile.WriteReq) { got = append(got, w) })
					exp := slices.Concat(wantQ[s*banks : (s+1)*banks]...)
					if !slices.Equal(got, exp) {
						t.Fatalf("seed %d, cycle %d: sub-core %d's write queues %v, the swap heap's order %v", seed, now, s, got, exp)
					}
					if sm.sleeps(s) != (len(exp) == 0) {
						t.Fatalf("seed %d, cycle %d: sub-core %d got %d writes and asleep = %v (awake mask %#b)", seed, now, s, len(exp), sm.sleeps(s), sm.awake)
					}
				}
			}
		}
	}
}
