package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/config"
)

func take(a *Assigner, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = a.Next()
	}
	return out
}

func counts(seq []int, n int) []int {
	c := make([]int, n)
	for _, s := range seq {
		c[s]++
	}
	return c
}

// TestNewAssignerFactory pins each policy's table: round robin's N ids,
// SRR's N² (Equation 1's period), and Shuffle's four assignments per
// hash-table entry.
func TestNewAssignerFactory(t *testing.T) {
	for _, c := range []struct {
		p     config.Assign
		table string
	}{
		{config.AssignRR, "\x00\x01\x02\x03"},
		{config.AssignSRR, "\x00\x01\x02\x03\x01\x02\x03\x00\x02\x03\x00\x01\x03\x00\x01\x02"},
	} {
		if a := NewAssigner(c.p, 4, 4, 1, 0); string(a.table) != c.table || a.w != 0 {
			t.Errorf("%v factory built %+v, want table %q", c.p, a, c.table)
		}
	}
	for _, entries := range []int{4, 16} {
		if a := NewAssigner(config.AssignShuffle, 4, entries, 1, 0); len(a.table) != 4*entries {
			t.Errorf("Shuffle with %d entries built a %d-assignment table", entries, len(a.table))
		}
	}
}

func TestNewAssignerPanicsOnZeroSubCores(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewAssigner(config.AssignRR, 0, 4, 1, 0)
}

func TestRoundRobinSequence(t *testing.T) {
	a := NewAssigner(config.AssignRR, 4, 4, 1, 0)
	got := take(&a, 8)
	want := []int{0, 1, 2, 3, 0, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("RR sequence = %v, want %v", got, want)
		}
	}
	a.Reset()
	if a.Next() != 0 {
		t.Error("Reset did not rewind RR")
	}
}

// TestSRRMatchesEquation1 pins SRR to the paper's Equation (1):
// subcoreID = (W + floor(W/N)) mod N.
func TestSRRMatchesEquation1(t *testing.T) {
	const n = 4
	a := NewAssigner(config.AssignSRR, n, 4, 1, 0)
	for w := 0; w < 64; w++ {
		want := (w + w/n) % n
		if got := a.Next(); got != want {
			t.Fatalf("SRR(W=%d) = %d, want %d", w, got, want)
		}
	}
}

// TestSRRSpreadsEveryFourthWarp verifies the design goal: with one long
// warp every 4 warps (warpID % 4 == 0, the TPC-H pattern), RR sends every
// long warp to sub-core 0 while SRR spreads them evenly.
func TestSRRSpreadsEveryFourthWarp(t *testing.T) {
	const n, warps = 4, 64
	rr := NewAssigner(config.AssignRR, n, 4, 1, 0)
	srr := NewAssigner(config.AssignSRR, n, 4, 1, 0)
	rrLong := make([]int, n)
	srrLong := make([]int, n)
	for w := 0; w < warps; w++ {
		r, s := rr.Next(), srr.Next()
		if w%4 == 0 {
			rrLong[r]++
			srrLong[s]++
		}
	}
	if rrLong[0] != warps/4 {
		t.Errorf("RR long-warp placement = %v, want all on sub-core 0", rrLong)
	}
	for sc, c := range srrLong {
		if c != warps/4/n {
			t.Errorf("SRR long-warp placement = %v, want even %d each (sub-core %d)", srrLong, warps/4/n, sc)
		}
	}
}

func TestSRRBalanced(t *testing.T) {
	a := NewAssigner(config.AssignSRR, 4, 4, 1, 0)
	c := counts(take(&a, 64), 4)
	for sc, n := range c {
		if n != 16 {
			t.Errorf("SRR count[%d] = %d, want 16", sc, n)
		}
	}
}

func TestShuffleBalancedWithinOne(t *testing.T) {
	a := NewAssigner(config.AssignShuffle, 4, 4, 99, 3)
	seq := take(&a, 64)
	// Any prefix must be balanced within +/-1 (the paper's guarantee).
	for p := 1; p <= len(seq); p++ {
		c := counts(seq[:p], 4)
		lo, hi := c[0], c[0]
		for _, v := range c {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if hi-lo > 1 {
			t.Fatalf("prefix %d unbalanced: %v", p, c)
		}
	}
}

func TestShuffleTableWraps(t *testing.T) {
	// 4-entry table encodes 16 assignments; warp 17 reuses entry 0's
	// pattern (Section IV-B1).
	a := NewAssigner(config.AssignShuffle, 4, 4, 7, 0)
	first := take(&a, 16)
	second := take(&a, 16)
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("4-entry table did not wrap at warp 16: %v vs %v", first, second)
		}
	}
	// A 16-entry table holds 64 assignments: its sequence repeats every
	// 64 warps, and (for this seed) not every 16.
	shuf16 := NewAssigner(config.AssignShuffle, 4, 16, 7, 0)
	b := take(&shuf16, 128)
	for i := 0; i < 64; i++ {
		if b[i] != b[i+64] {
			t.Fatalf("16-entry table did not wrap at warp 64: %v", b)
		}
	}
	short := true
	for i := 0; i < 48; i++ {
		short = short && b[i] == b[i+16]
	}
	if short {
		t.Errorf("16-entry table repeats every 16 warps: %v", b[:64])
	}
}

func TestShuffleDeterministicPerSeed(t *testing.T) {
	a := NewAssigner(config.AssignShuffle, 4, 4, 42, 1)
	b := NewAssigner(config.AssignShuffle, 4, 4, 42, 1)
	c := NewAssigner(config.AssignShuffle, 4, 4, 42, 2)
	sa, sb, sc := take(&a, 16), take(&b, 16), take(&c, 16)
	diff := false
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatal("same (seed, SM) produced different tables")
		}
		if sa[i] != sc[i] {
			diff = true
		}
	}
	if !diff {
		t.Error("different SMs should (almost surely) shuffle differently")
	}
}

func TestShuffleResetRestartsSequence(t *testing.T) {
	a := NewAssigner(config.AssignShuffle, 4, 4, 5, 0)
	first := take(&a, 5)
	a.Reset()
	again := take(&a, 5)
	for i := range first {
		if first[i] != again[i] {
			t.Fatal("Reset did not restart the shuffle sequence")
		}
	}
}

// Property: every assigner keeps counts within +/-1 on any prefix for
// N = 4 (the paper's balance guarantee holds for RR, SRR and Shuffle).
func TestAllPoliciesBalancedProperty(t *testing.T) {
	f := func(seed int64, prefix uint8) bool {
		p := int(prefix)%64 + 1
		for _, pol := range []config.Assign{config.AssignRR, config.AssignSRR, config.AssignShuffle} {
			a := NewAssigner(pol, 4, 4, seed, 0)
			c := counts(take(&a, p), 4)
			lo, hi := c[0], c[0]
			for _, v := range c {
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			if hi-lo > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestAssignerMatchesReference holds the one table-driven Assigner to the
// three policy types it replaced (ref_test.go): for N in {1, 2, 3, 4, 8},
// both Shuffle table sizes, several seeds and SM ids, Next and State agree
// after every call over at least four periods of each sequence (N for round
// robin, N² for SRR, the table for Shuffle), with kernel resets and snapshot
// restores — of the word State wrote, and of an arbitrary warp count far
// into the sequence — at random points.
func TestAssignerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, p := range []config.Assign{config.AssignRR, config.AssignSRR, config.AssignShuffle} {
		for _, n := range []int{1, 2, 3, 4, 8} {
			for _, entries := range []int{4, 16} {
				for _, seed := range []int64{1, 2, 99} {
					for _, sm := range []int{0, 3} {
						a, ref := NewAssigner(p, n, entries, seed, sm), newRefAssigner(p, n, entries, seed, sm)
						for call := 0; call < 4*max(n*n, 4*entries)+64; call++ {
							switch rng.Intn(32) {
							case 0:
								a.Reset()
								ref.Reset()
							case 1:
								w := a.State()
								a.SetState(w)
								ref.SetState(w)
							case 2:
								w := uint64(rng.Intn(1 << 20))
								a.SetState(w)
								ref.SetState(w)
							}
							if got, want := a.Next(), ref.Next(); got != want {
								t.Fatalf("%v N=%d entries=%d seed=%d sm=%d call %d: Next = %d, reference %d", p, n, entries, seed, sm, call, got, want)
							}
							if got, want := a.State(), ref.State(); got != want {
								t.Fatalf("%v N=%d entries=%d seed=%d sm=%d call %d: State = %d, reference %d", p, n, entries, seed, sm, call, got, want)
							}
						}
					}
				}
			}
		}
	}
}
