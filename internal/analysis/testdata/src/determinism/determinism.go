// Package determinism is the golden-file fixture for the determinism
// analyzer: map iteration, wall-clock reads, and the global math/rand
// stream in simulation-scope code, next to the sanctioned alternatives.
package determinism

import (
	"math/rand"
	"time"
)

type simState struct {
	scoreboard map[int]int64
	rng        *rand.Rand
}

// collectTotals sums in map order — the classic nondeterminism bug when
// float accumulation or tie-breaking depends on visit order.
func (s *simState) collectTotals() int64 {
	var total int64
	for _, v := range s.scoreboard { // want "map iteration order is nondeterministic"
		total += v
	}
	return total
}

// waived carries an old-style waiver. simlint reads no directive, so the
// comment hides nothing and the finding stands.
func (s *simState) waived() (n int) {
	for range s.scoreboard { //simlint:allow determinism -- a waiver is just a comment // want "map iteration order is nondeterministic"
		n++
	}
	return n
}

// stamp reads the wall clock twice; both reads diverge between runs.
func (s *simState) stamp() float64 {
	start := time.Now() // want "wall-clock reads diverge between identical runs"
	s.collectTotals()
	return time.Since(start).Seconds() // want "wall-clock reads diverge between identical runs"
}

// jitter consumes the process-global stream, whose sequence depends on
// every other consumer in the binary.
func (s *simState) jitter() int {
	return rand.Intn(4) // want "global math/rand.Intn"
}

// seeded constructs and uses a private stream — both calls are fine.
func (s *simState) seeded(seed int64) int64 {
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(seed))
	}
	return s.rng.Int63()
}
