package mem

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// refCache is Cache with Access as it was before the set walk kept its LRU
// minimum in a local and masked power-of-two set counts: verbatim, the
// reference TestCacheMatchesReference holds the one-pass walk to.
type refCache struct{ Cache }

func (c *refCache) Access(addr uint64, write bool) bool {
	line := c.LineOf(addr)
	set := int(line % uint64(c.sets))
	base := set * c.assoc
	c.clock++
	stored := line + 1
	victim := base
	for i := base; i < base+c.assoc; i++ {
		if c.tags[i] == stored {
			c.use[i] = c.clock
			if !write {
				c.Hits++
			}
			return true
		}
		if c.use[i] < c.use[victim] {
			victim = i
		}
	}
	if !write {
		c.Misses++
		c.tags[victim] = stored
		c.use[victim] = c.clock
	}
	return false
}

// TestCacheMatchesReference drives Access and the reference with the same
// seeded reads and writes over line spans of one to four times the cache's
// capacity, and compares every result and the whole state — tags, stamps,
// clock and counters — after every access. The shapes cover a masked set
// index (the V100 L1), a divided one (the scaled L2's 102 sets, and 3 sets
// of 5 ways), one 24-way set and one 1-way set. Cold ways all carry stamp 0,
// so every fill of a set's first ways tests the victim tie rule.
func TestCacheMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name                       string
		kb, assoc, lineBytes, sets int
	}{
		{"v100-l1", 128, 4, 128, 256},
		{"scaled-l2", 6 * 1024 / 20, 24, 128, 102},
		{"1x24", 3, 24, 128, 1},
		{"1x1", 1, 1, 1024, 1},
		{"3x5", 1, 5, 64, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := NewCache(tc.kb, tc.assoc, tc.lineBytes)
			if got.sets != tc.sets || got.assoc != tc.assoc {
				t.Fatalf("shape %d x %d, want %d x %d", got.sets, got.assoc, tc.sets, tc.assoc)
			}
			want := &refCache{*NewCache(tc.kb, tc.assoc, tc.lineBytes)}
			rng := rand.New(rand.NewPCG(uint64(tc.sets), uint64(tc.assoc)))
			lines := uint64(tc.sets * tc.assoc)
			for span := uint64(1); span <= 4; span++ {
				for step := range 20000 {
					addr := rng.Uint64N(span*lines)<<got.lineShift | rng.Uint64N(uint64(tc.lineBytes))
					write := rng.IntN(4) == 0
					if g, w := got.Access(addr, write), want.Access(addr, write); g != w {
						t.Fatalf("span %dx, step %d, Access(%#x, %v) = %v, reference %v", span, step, addr, write, g, w)
					}
					if !slices.Equal(got.tags, want.tags) || !slices.Equal(got.use, want.use) ||
						got.clock != want.clock || got.Hits != want.Hits || got.Misses != want.Misses {
						t.Fatalf("span %dx, step %d, after Access(%#x, %v): state diverged from the reference", span, step, addr, write)
					}
				}
			}
			if got.Hits == 0 || got.Misses == 0 {
				t.Errorf("hits %d, misses %d: the stream never took one of the paths", got.Hits, got.Misses)
			}
		})
	}
}
