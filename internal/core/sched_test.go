package core

import (
	"math/rand"
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
)

func TestNewWarpScheduler(t *testing.T) {
	for _, p := range []config.WarpSched{config.SchedGTO, config.SchedLRR, config.SchedRBA} {
		if s := NewWarpScheduler(p); s.policy != p || s.last != -1 || s.State() != 0 {
			t.Errorf("%v factory built %+v (state %d), want the policy with no history", p, s, s.State())
		}
	}
}

func TestGTOGreedyThenOldest(t *testing.T) {
	g := NewWarpScheduler(config.SchedGTO)
	cands := []Candidate{{Slot: 3, Age: 30}, {Slot: 1, Age: 10}, {Slot: 2, Age: 20}}
	// No history: oldest (age 10, slot 1).
	if i := g.Pick(cands); cands[i].Slot != 1 {
		t.Fatalf("picked slot %d, want 1 (oldest)", cands[i].Slot)
	}
	g.NotifyIssued(2)
	// Greedy: slot 2 is ready, keep issuing it despite being younger.
	if i := g.Pick(cands); cands[i].Slot != 2 {
		t.Fatalf("picked slot %d, want 2 (greedy)", cands[i].Slot)
	}
	// Greedy warp gone: back to oldest.
	cands2 := []Candidate{{Slot: 3, Age: 30}, {Slot: 1, Age: 10}}
	if i := g.Pick(cands2); cands2[i].Slot != 1 {
		t.Fatalf("picked slot %d, want 1", cands2[i].Slot)
	}
	g.Reset()
	g2 := []Candidate{{Slot: 2, Age: 20}, {Slot: 5, Age: 5}}
	if i := g.Pick(g2); g2[i].Slot != 5 {
		t.Fatal("Reset did not clear greedy history")
	}
	if g.Pick(nil) != -1 {
		t.Error("empty candidates must return -1")
	}
}

func TestGTOGreedyCandidateFirstPosition(t *testing.T) {
	g := NewWarpScheduler(config.SchedGTO)
	g.NotifyIssued(7)
	cands := []Candidate{{Slot: 7, Age: 99}, {Slot: 1, Age: 1}}
	if i := g.Pick(cands); cands[i].Slot != 7 {
		t.Error("greedy slot at index 0 not honored")
	}
}

func TestLRRRotation(t *testing.T) {
	l := NewWarpScheduler(config.SchedLRR)
	cands := []Candidate{{Slot: 0}, {Slot: 1}, {Slot: 2}}
	order := []int{}
	for i := 0; i < 6; i++ {
		p := l.Pick(cands)
		order = append(order, cands[p].Slot)
		l.NotifyIssued(cands[p].Slot)
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("rotation = %v, want %v", order, want)
		}
	}
	// Pointer past all slots wraps to the lowest.
	l.NotifyIssued(2)
	if p := l.Pick(cands); cands[p].Slot != 0 {
		t.Error("LRR did not wrap")
	}
	if l.Pick(nil) != -1 {
		t.Error("empty candidates must return -1")
	}
	l.Reset()
	if p := l.Pick(cands); cands[p].Slot != 0 {
		t.Error("Reset did not rewind pointer")
	}
}

func TestRBALowestScoreThenOldest(t *testing.T) {
	r := NewWarpScheduler(config.SchedRBA)
	cands := []Candidate{
		{Slot: 0, Age: 5, Score: 4},
		{Slot: 1, Age: 9, Score: 2},
		{Slot: 2, Age: 1, Score: 2},
		{Slot: 3, Age: 0, Score: 7},
	}
	// Lowest score 2 shared by slots 1 and 2; older (age 1) wins.
	if i := r.Pick(cands); cands[i].Slot != 2 {
		t.Fatalf("picked slot %d, want 2", cands[i].Slot)
	}
	if r.Pick(nil) != -1 {
		t.Error("empty candidates must return -1")
	}
	r.NotifyIssued(0) // no-op, must not panic
	r.Reset()
}

func TestScore(t *testing.T) {
	qlens := []int{3, 1}
	queueLen := func(b int) int { return qlens[b] }
	bankOf := func(r isa.Reg) int { return int(r) % 2 }
	// FMA R4 <- R1(b1), R2(b0), R3(b1): 1 + 3 + 1 = 5.
	in := isa.MakeFMA(4, 1, 2, 3)
	if got := Score(&in, bankOf, queueLen); got != 5 {
		t.Errorf("Score = %d, want 5", got)
	}
	// Two operands in the same bank count the queue twice (paper's
	// example: score = 2*len(q0) + len(q1)).
	in2 := isa.MakeFMA(4, 0, 2, 1) // b0, b0, b1
	if got := Score(&in2, bankOf, queueLen); got != 7 {
		t.Errorf("Score = %d, want 7", got)
	}
	// Zero-source instructions score 0.
	bar := isa.MakeBar()
	if got := Score(&bar, bankOf, queueLen); got != 0 {
		t.Errorf("BAR Score = %d, want 0", got)
	}
}

func TestScoreSaturates(t *testing.T) {
	queueLen := func(int) int { return 100 }
	bankOf := func(isa.Reg) int { return 0 }
	in := isa.MakeFMA(4, 1, 2, 3)
	if got := Score(&in, bankOf, queueLen); got != MaxScore {
		t.Errorf("Score = %d, want saturation at %d", got, MaxScore)
	}
	if MaxScore != 31 {
		t.Errorf("MaxScore = %d, want 31 (5-bit field)", MaxScore)
	}
}

func TestRBAPrefersIdleBanks(t *testing.T) {
	// Scenario from Section IV-A: two ready warps, one whose operands sit
	// in congested banks, one whose operands sit in idle banks. RBA must
	// pick the idle-bank warp even though the other is older.
	r := NewWarpScheduler(config.SchedRBA)
	congested := Candidate{Slot: 0, Age: 0, Score: 6}
	idle := Candidate{Slot: 1, Age: 100, Score: 0}
	if i := r.Pick([]Candidate{congested, idle}); i != 1 {
		t.Error("RBA picked the congested warp")
	}
	// GTO, blind to scores, picks the older congested warp.
	g := NewWarpScheduler(config.SchedGTO)
	if i := g.Pick([]Candidate{congested, idle}); i != 0 {
		t.Error("GTO should pick by age")
	}
}

// documentedPick is the policies' order as the WarpScheduler doc comment
// states it, written as a ranking over a whole candidate list rather than
// as a scan: the oracle both entry points are held to.
func documentedPick(s *WarpScheduler, cands []Candidate) int {
	rank := func(c Candidate) [2]int64 {
		switch s.policy {
		case config.SchedGTO:
			if c.Slot == s.last {
				return [2]int64{-1, 0} // greedy: the last issuer, while ready
			}
			return [2]int64{0, c.Age} // then oldest
		case config.SchedLRR:
			if c.Slot > s.last {
				return [2]int64{0, int64(c.Slot)} // past the last issuer, in slot order
			}
			return [2]int64{1, int64(c.Slot)} // then wrapped
		default:
			return [2]int64{int64(c.Score), c.Age} // RBA: {score, ~age}
		}
	}
	best, bestRank := -1, [2]int64{}
	for i, c := range cands {
		if r := rank(c); best < 0 || r[0] < bestRank[0] || (r[0] == bestRank[0] && r[1] < bestRank[1]) {
			best, bestRank = i, r
		}
	}
	return best
}

// randomReady draws a ready set of 1–64 slots with distinct ages (as
// resident warps have) and random scores, and its candidate list in shuffled
// order.
func randomReady(rng *rand.Rand) (ready uint64, age *[MaxSlots]int64, score *[MaxSlots]uint8, cands []Candidate) {
	age, score = new([MaxSlots]int64), new([MaxSlots]uint8)
	ages := rng.Perm(4 * MaxSlots)
	for _, slot := range rng.Perm(MaxSlots)[:1+rng.Intn(MaxSlots)] {
		ready |= 1 << uint(slot)
		age[slot] = int64(ages[slot])
		score[slot] = uint8(rng.Intn(MaxScore + 1))
		cands = append(cands, Candidate{Slot: slot, Age: age[slot], Score: int(score[slot])})
	}
	return ready, age, score, cands
}

// TestPickReadyMatchesPickOnLists is the differential property behind the
// single comparator: for random ready sets, random scores and a random
// issue history, the mask-native PickReady, the list adapter Pick — handed
// the candidates in shuffled order — and the documented order agree on the
// slot, and keep agreeing as picked slots are spent one by one (the issue
// stage's fall-through), some of them issuing and moving the policy's
// history.
func TestPickReadyMatchesPickOnLists(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, policy := range []config.WarpSched{config.SchedGTO, config.SchedLRR, config.SchedRBA} {
		s := NewWarpScheduler(policy)
		for trial := 0; trial < 400; trial++ {
			ready, age, score, cands := randomReady(rng)
			s.Reset()
			for n := rng.Intn(3); n > 0; n-- {
				s.NotifyIssued(rng.Intn(MaxSlots))
			}
			for len(cands) > 0 {
				slot := s.PickReady(ready, age, score)
				i, want := s.Pick(cands), documentedPick(&s, cands)
				if i < 0 || cands[i].Slot != slot || cands[want].Slot != slot {
					t.Fatalf("%v trial %d, %d candidates left: PickReady chose slot %d, Pick %v, the documented order %v",
						policy, trial, len(cands), slot, cands[i], cands[want])
				}
				// Spend the pick the way the issue stage and the old list did.
				ready &^= 1 << uint(slot)
				cands[i] = cands[len(cands)-1]
				cands = cands[:len(cands)-1]
				if rng.Intn(3) == 0 {
					s.NotifyIssued(slot)
				}
			}
			if s.PickReady(0, age, score) != -1 || s.Pick(nil) != -1 {
				t.Fatalf("%v: an empty ready set must pick -1", policy)
			}
		}
	}
}

// TestWarpSchedulerMatchesReference holds the one WarpScheduler to the three
// policy types it replaced (ref_test.go): over random ready sets, ages and
// scores, with issues, kernel resets and snapshot restores — of the word
// State wrote, of a slot-sized word and of an arbitrary one — interleaved at
// random, both pick the same slot through PickReady and the same index
// through Pick, and write the same State word after every step.
func TestWarpSchedulerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, policy := range []config.WarpSched{config.SchedGTO, config.SchedLRR, config.SchedRBA} {
		s, ref := NewWarpScheduler(policy), newRefWarpScheduler(policy)
		for step := 0; step < 20000; step++ {
			switch op := rng.Intn(16); {
			case op == 0:
				s.Reset()
				ref.Reset()
			case op == 1:
				w := s.State()
				s.SetState(w)
				ref.SetState(w)
			case op == 2:
				w := uint64(rng.Intn(4 * MaxSlots))
				s.SetState(w)
				ref.SetState(w)
			case op == 3:
				w := rng.Uint64()
				s.SetState(w)
				ref.SetState(w)
			case op < 8:
				slot := rng.Intn(MaxSlots)
				s.NotifyIssued(slot)
				ref.NotifyIssued(slot)
			default:
				ready, age, score, cands := randomReady(rng)
				if rng.Intn(4) == 0 {
					ready, cands = 0, nil
				}
				got, want := s.PickReady(ready, age, score), ref.PickReady(ready, age, score)
				if got != want {
					t.Fatalf("%v step %d: PickReady(%#x) = %d, reference %d (state %#x)", policy, step, ready, got, want, ref.State())
				}
				if got, want := s.Pick(cands), ref.Pick(cands); got != want {
					t.Fatalf("%v step %d: Pick = %d, reference %d (state %#x)", policy, step, got, want, ref.State())
				}
				if got >= 0 && rng.Intn(2) == 0 {
					s.NotifyIssued(got)
					ref.NotifyIssued(got)
				}
			}
			if got, want := s.State(), ref.State(); got != want {
				t.Fatalf("%v step %d: State = %#x, reference %#x", policy, step, got, want)
			}
		}
	}
}
