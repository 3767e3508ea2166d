package smcore

import (
	"math/rand"
	"slices"
	"testing"
)

// swapHeap is wbHeap as it was before its sifts moved entries into a hole:
// push and pop verbatim, the reference TestWBHeapMatchesSwapHeap holds the
// hole sifts to.
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

// TestWBHeapMatchesSwapHeap drives wbHeap and the swap heap with the same
// seeded streams and compares the two arrays entry for entry after every
// push and pop. The array is not just a priority queue's storage: among
// writebacks due in one cycle it decides which reaches a bank's write port
// first, and a frame carries it. Cycles come from a window a few cycles wide,
// so most comparisons tie — the only place a hole sift can differ from a swap
// sift — and the heap grows to 512 entries and drains to none, popped "while
// the root is due" as SM.Tick's first stage does.
func TestWBHeapMatchesSwapHeap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		window := 1 + rng.Intn(8)
		var got wbHeap
		var want swapHeap
		now, seq := int64(0), int32(0)
		same := func(op string) {
			if !slices.Equal(got, []wbEvent(want)) {
				t.Fatalf("seed %d, cycle %d, after a %s (%d entries): hole heap %v, swap heap %v", seed, now, op, len(want), got, want)
			}
		}
		for round := 0; round < 40; round++ {
			for target := rng.Intn(513); len(want) < target; seq++ {
				e := wbEvent{cycle: now + int64(rng.Intn(window)), warpIdx: seq, subCore: int8(seq % 4)}
				got.push(e)
				want.push(e)
				same("push")
			}
			for target := rng.Intn(len(want) + 1); len(want) > target; now++ {
				for len(want) > 0 && want[0].cycle <= now {
					if g, w := got.pop(), want.pop(); g != w {
						t.Fatalf("seed %d, cycle %d: popped %+v, the swap heap %+v", seed, now, g, w)
					}
					same("pop")
				}
			}
		}
	}
}
