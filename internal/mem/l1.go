package mem

// L1 models the first-level cache behaviour of the SCC's MPBT memory
// type. MPBT data in write-through configuration is cached only in L1;
// all deeper caches are bypassed. There is no hardware coherence: a line
// cached here goes stale the moment another core writes the underlying
// MPB, until the owning core executes CL1INVMB (modelled by
// InvalidateAll), which invalidates every MPBT-tagged line in one
// instruction.
//
// The cache stores real line contents so that a missing invalidation
// produces genuinely stale reads, reproducing the SCC programming model.
//
// Resident lines live in a slot slice that grows to maxLines and is then
// reused as a FIFO ring: slots are filled in insertion order, so once
// the cache is full the oldest line is always in slot head, and a new
// line replaces it there. Steady-state fills, lookups and invalidations
// allocate nothing once the index map has settled: deletes from a full
// map group leave tombstones, which make it grow a few times early on.
type L1 struct {
	index    map[uint64]int32 // resident key -> slot
	slots    []l1Slot
	head     int // oldest slot once len(slots) == maxLines
	maxLines int

	hits      uint64
	misses    uint64
	evictions uint64
	flushes   uint64
}

type l1Slot struct {
	key  uint64
	line [LineSize]byte
}

// NewL1 returns a cache holding at most maxLines MPBT lines. The SCC's
// 16 KB L1 data cache holds 512 lines; MPBT data shares it with private
// data, so smaller budgets are realistic too.
func NewL1(maxLines int) *L1 {
	if maxLines <= 0 {
		panic("mem: L1 with non-positive capacity")
	}
	return &L1{index: make(map[uint64]int32), maxLines: maxLines}
}

// Lookup returns the cached copy of the line keyed by key, if present.
// The returned slice aliases cache storage; callers must not modify it.
func (c *L1) Lookup(key uint64) ([]byte, bool) {
	if s, ok := c.index[key]; ok {
		c.hits++
		return c.slots[s].line[:], true
	}
	c.misses++
	return nil, false
}

// Contains reports whether the line is cached, without touching hit/miss
// counters.
func (c *L1) Contains(key uint64) bool {
	_, ok := c.index[key]
	return ok
}

// Fill inserts a line fetched from memory, evicting the oldest line if
// the cache is full. Refilling a resident line replaces its data but
// keeps its place in the eviction order.
func (c *L1) Fill(key uint64, data [LineSize]byte) {
	if s, ok := c.index[key]; ok {
		c.slots[s].line = data
		return
	}
	if len(c.slots) < c.maxLines {
		c.index[key] = int32(len(c.slots))
		c.slots = append(c.slots, l1Slot{key: key, line: data})
		return
	}
	s := &c.slots[c.head]
	delete(c.index, s.key)
	c.evictions++
	s.key, s.line = key, data
	c.index[key] = int32(c.head)
	if c.head++; c.head == c.maxLines {
		c.head = 0
	}
}

// UpdateIfPresent applies a write-through store to the cached copy, if
// the line is resident. off is the byte offset within the line.
func (c *L1) UpdateIfPresent(key uint64, off int, data []byte) {
	if s, ok := c.index[key]; ok {
		copy(c.slots[s].line[off:], data)
	}
}

// InvalidateAll models CL1INVMB: every MPBT line is dropped in a single
// instruction.
func (c *L1) InvalidateAll() {
	for i := range c.slots {
		delete(c.index, c.slots[i].key)
	}
	c.slots = c.slots[:0]
	c.head = 0
	c.flushes++
}

// Len reports the number of resident lines.
func (c *L1) Len() int { return len(c.slots) }

// L1Stats is a snapshot of cache counters.
type L1Stats struct {
	Hits, Misses, Evictions, Flushes uint64
}

// Stats returns counters accumulated since creation.
func (c *L1) Stats() L1Stats {
	return L1Stats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Flushes: c.flushes}
}
