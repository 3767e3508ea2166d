// Package mem models the GPU memory system below the sub-cores: per-SM L1
// data caches, the shared L2, and DRAM with finite bandwidth. The paper's
// mechanisms live in the SM front-end, but a credible memory system is
// required for the workloads' relative behaviour — TPC-H is memory-bound
// (so RBA barely helps it), the SM-scaling study (Fig. 18) needs a shared
// bandwidth ceiling, and cache hit rates shape how often the LSU blocks.
package mem

// Cache is a set-associative, write-through, no-write-allocate cache with
// LRU replacement, tracking only tags (the simulator carries no data). The
// shape fields are fixed at construction; the embedded cacheState is what
// changes as it runs.
type Cache struct {
	sets      int
	assoc     int
	lineShift uint
	cacheState
}

// cacheState is a cache's mutable state: plain data only, carried whole by
// snapshot.State (snapshot.go).
type cacheState struct {
	tags  []uint64 `snap:"fixed"` // sets*assoc entries; 0 = invalid (tag+1 stored)
	use   []int64  `snap:"fixed"` // LRU timestamps
	clock int64

	// Hits and Misses count read lookups.
	Hits, Misses int64
}

// NewCache builds a cache of capacityKB with the given associativity and
// line size. Degenerate shapes are clamped to at least one set.
func NewCache(capacityKB, assoc, lineBytes int) *Cache {
	if assoc < 1 {
		assoc = 1
	}
	lines := capacityKB * 1024 / lineBytes
	sets := lines / assoc
	if sets < 1 {
		sets = 1
	}
	shift := uint(0)
	for 1<<shift < lineBytes {
		shift++
	}
	return &Cache{
		sets:      sets,
		assoc:     assoc,
		lineShift: shift,
		cacheState: cacheState{
			tags: make([]uint64, sets*assoc),
			use:  make([]int64, sets*assoc),
		},
	}
}

// LineOf returns the line address (byte address >> lineShift).
func (c *Cache) LineOf(addr uint64) uint64 { return addr >> c.lineShift }

// setOf returns the set line maps to: line mod sets, a mask when sets is a
// power of two (every L1; the scaled L2's 102 sets divide).
func (c *Cache) setOf(line uint64) int {
	n := uint64(c.sets)
	if n&(n-1) == 0 {
		return int(line & (n - 1))
	}
	return int(line % n)
}

// Access looks up the line containing addr, allocating it on a miss
// (reads) and returns whether it hit. Writes update LRU on hit and bypass
// allocation (no-write-allocate). A read miss evicts the first way with the
// strictly smallest stamp, found in the same pass that looks for the tag.
func (c *Cache) Access(addr uint64, write bool) bool {
	line := c.LineOf(addr)
	base := c.setOf(line) * c.assoc
	tags := c.tags[base : base+c.assoc]
	use := c.use[base:][:len(tags)]
	c.clock++
	stored := line + 1
	victim, oldest := 0, use[0]
	for i, tag := range tags {
		if tag == stored {
			use[i] = c.clock
			if !write {
				c.Hits++
			}
			return true
		}
		if u := use[i]; u < oldest {
			victim, oldest = i, u
		}
	}
	if !write {
		c.Misses++
		tags[victim] = stored
		use[victim] = c.clock
	}
	return false
}
