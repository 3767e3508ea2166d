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

// Access looks up the line containing addr, allocating it on a miss
// (reads) and returns whether it hit. Writes update LRU on hit and bypass
// allocation (no-write-allocate).
func (c *Cache) Access(addr uint64, write bool) bool {
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
