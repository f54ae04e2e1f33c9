package host

import (
	"fmt"
	"hash/crc32"

	"vscc/internal/mem"
	"vscc/internal/sim"
)

// lineKey identifies one 32-byte MPB line globally (same encoding idea as
// the device caches, but private to the host task).
func lineKey(dev, tile, off int) uint64 {
	return uint64(dev)<<40 | uint64(tile)<<20 | uint64(off/mem.LineSize)
}

// cacheEntry is the host-side software copy of one cached region. Lines
// become valid as prefetch bursts arrive; the owner's explicit
// invalidate command drops them — the relaxed-consistency contract of
// §3.1 ("the sender that writes to a local MPB explicitly invalidates
// the outdated part of the host copy").
type cacheEntry struct {
	rg    *Region
	data  []byte
	valid []bool // per line
	// hotEnd is the exclusive end (relative to rg.Off) of the range the
	// owner announced with update commands; streams run up to it.
	hotEnd int
	// pending counts in-flight prefetch bursts.
	pending int
	cond    *sim.Cond

	// track enables per-line checksums (sums), kept only when fault
	// injection is armed: a line whose stored bytes no longer match its
	// checksum was corrupted in host memory and must not be served.
	track bool
	sums  []uint32

	// acct attributes this entry's resident lines to a tenant's cache
	// partition (qos.go); nil — the default — disables partitioning.
	// stamps records each line's validation sequence so a lazily
	// processed eviction ref never drops a newer incarnation.
	acct   *tenantQoS
	stamps []uint64
}

func newCacheEntry(k *sim.Kernel, rg *Region) *cacheEntry {
	return &cacheEntry{
		rg:    rg,
		data:  make([]byte, rg.Len),
		valid: make([]bool, (rg.Len+mem.LineSize-1)/mem.LineSize),
		cond:  sim.NewCond(k, fmt.Sprintf("hostcache.d%d.t%d", rg.Dev, rg.Tile)),
	}
}

// lineValid reports whether the line at absolute tile offset off is
// valid.
func (e *cacheEntry) lineValid(off int) bool {
	return e.valid[(off-e.rg.Off)/mem.LineSize]
}

// markValid validates the lines covering [off, off+n) (absolute),
// recomputing their checksums when tracking is on.
func (e *cacheEntry) markValid(off, n int) {
	for o := off; o < off+n; o += mem.LineSize {
		i := (o - e.rg.Off) / mem.LineSize
		if !e.valid[i] {
			e.valid[i] = true
			if e.acct != nil {
				e.acct.noteValid(e, i)
			}
		}
		if e.track {
			if e.sums == nil {
				e.sums = make([]uint32, len(e.valid))
			}
			rel := i * mem.LineSize
			e.sums[i] = crc32.ChecksumIEEE(e.data[rel : rel+mem.LineSize])
		}
	}
}

// lineClean reports whether the line at absolute offset off still
// matches its checksum. Always true when tracking is off.
func (e *cacheEntry) lineClean(off int) bool {
	if !e.track || e.sums == nil {
		return true
	}
	i := (off - e.rg.Off) / mem.LineSize
	rel := i * mem.LineSize
	return e.sums[i] == crc32.ChecksumIEEE(e.data[rel:rel+mem.LineSize])
}

// invalidate drops lines overlapping [off, off+n) (absolute) and clips
// the hot range.
func (e *cacheEntry) invalidate(off, n int) {
	first := (off - e.rg.Off) / mem.LineSize
	last := (off + n - 1 - e.rg.Off) / mem.LineSize
	for i := first; i <= last && i < len(e.valid); i++ {
		if i >= 0 {
			if e.valid[i] && e.acct != nil {
				e.acct.noteInvalid()
			}
			e.valid[i] = false
		}
	}
	if rel := off - e.rg.Off; rel < e.hotEnd {
		e.hotEnd = rel
	}
	e.cond.Broadcast()
}

// sifBuffer models the device-side response buffer in the SIF FPGA that
// the host streams prefetched lines into. A read that hits here is
// served at on-chip cost — the mechanism that turns the latency-bound
// remote-get path into a bandwidth-bound one. FIFO eviction keeps it
// bounded; an evicted line simply falls back to the slow path.
type sifBuffer struct {
	lines    map[uint64][]byte
	order    []uint64
	capLines int
	cond     *sim.Cond

	// gens counts invalidations per (dev, tile); genAll counts full
	// resets. A streamed line captures genOf when it is posted; if an
	// invalidate (or crash reset) lands while the line is still in
	// flight, the arrival is discarded — otherwise a delayed line from
	// before the owner's invalidate would reappear in the buffer and
	// serve stale data.
	gens   map[uint32]uint64
	genAll uint64

	evictions uint64
}

func newSIFBuffer(k *sim.Kernel, dev, capLines int) *sifBuffer {
	return &sifBuffer{
		lines:    make(map[uint64][]byte),
		capLines: capLines,
		cond:     sim.NewCond(k, fmt.Sprintf("sifbuf.d%d", dev)),
		gens:     make(map[uint32]uint64),
	}
}

// genOf returns the current insert generation for lines of (dev, tile).
func (b *sifBuffer) genOf(dev, tile int) uint64 {
	return b.genAll + b.gens[uint32(dev)<<16|uint32(tile)]
}

// insert adds a line copy, evicting the oldest when full, and wakes
// waiting readers.
func (b *sifBuffer) insert(key uint64, data []byte) {
	if _, ok := b.lines[key]; !ok {
		if len(b.order) >= b.capLines {
			oldest := b.order[0]
			b.order = b.order[1:]
			delete(b.lines, oldest)
			b.evictions++
		}
		b.order = append(b.order, key)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	b.lines[key] = cp
	b.cond.Broadcast()
}

// take removes and returns a line.
func (b *sifBuffer) take(key uint64) ([]byte, bool) {
	data, ok := b.lines[key]
	if !ok {
		return nil, false
	}
	delete(b.lines, key)
	for i, k := range b.order {
		if k == key {
			b.order = append(b.order[:i], b.order[i+1:]...)
			break
		}
	}
	return data, true
}

// insertIfFresh adds a line only if no invalidation of its region
// happened since gen was captured; a stale in-flight line is dropped on
// the floor (its reader falls back to the slow path).
func (b *sifBuffer) insertIfFresh(gen uint64, dev, tile int, key uint64, data []byte) bool {
	if gen != b.genOf(dev, tile) {
		b.cond.Broadcast() // readers parked on this line must re-check
		return false
	}
	b.insert(key, data)
	return true
}

// reset drops every buffered line — the crash-restart path: the SIF
// response buffer is volatile host-task state.
func (b *sifBuffer) reset() {
	clear(b.lines)
	b.order = b.order[:0]
	b.genAll++
	b.cond.Broadcast()
}

// invalidateRange drops buffered lines of (dev, tile, [off, off+n)).
func (b *sifBuffer) invalidateRange(dev, tile, off, n int) {
	b.gens[uint32(dev)<<16|uint32(tile)]++
	for o := off &^ (mem.LineSize - 1); o < off+n; o += mem.LineSize {
		key := lineKey(dev, tile, o)
		if _, ok := b.lines[key]; ok {
			delete(b.lines, key)
			for i, k := range b.order {
				if k == key {
					b.order = append(b.order[:i], b.order[i+1:]...)
					break
				}
			}
		}
	}
	b.cond.Broadcast()
}

// stream is one active host->device line streamer feeding a reader's SIF
// buffer from the software cache.
type stream struct {
	readerDev int
	rg        *Region
	// nextOff is the next absolute tile offset to push; the stream runs
	// while nextOff < rg.Off + entry.hotEnd and lines are valid.
	nextOff int
	active  bool
}

// activeStream returns the region's running stream toward readerDev, or
// nil. A region runs at most one stream per reader.
func (rg *Region) activeStream(readerDev int) *stream {
	for _, st := range rg.streams {
		if st.active && st.readerDev == readerDev {
			return st
		}
	}
	return nil
}

// hostWCB is the communication task's write-combining buffer for one
// region: remote writes are absorbed here and flushed to the device in
// bursts (Fig. 4c).
type hostWCB struct {
	rg         *Region
	buf        []byte
	dirty      []bool // per byte
	dirtyBytes int
}

func newHostWCB(rg *Region) *hostWCB {
	return &hostWCB{rg: rg, buf: make([]byte, rg.Len), dirty: make([]bool, rg.Len)}
}

// absorb merges a masked line write at absolute tile offset off.
func (w *hostWCB) absorb(off int, data []byte, mask uint32) {
	base := off - w.rg.Off
	for i := 0; i < len(data) && i < mem.LineSize; i++ {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		if !w.dirty[base+i] {
			w.dirty[base+i] = true
			w.dirtyBytes++
		}
		w.buf[base+i] = data[i]
	}
}

// takeDirtySpans snapshots and clears all dirty spans, returning
// (absolute offset, data copy) pairs.
func (w *hostWCB) takeDirtySpans() []dirtySpan {
	var spans []dirtySpan
	i := 0
	for i < len(w.dirty) {
		if !w.dirty[i] {
			i++
			continue
		}
		j := i
		for j < len(w.dirty) && w.dirty[j] {
			w.dirty[j] = false
			j++
		}
		data := make([]byte, j-i)
		copy(data, w.buf[i:j])
		spans = append(spans, dirtySpan{off: w.rg.Off + i, data: data})
		i = j
	}
	w.dirtyBytes = 0
	return spans
}

type dirtySpan struct {
	off  int
	data []byte
}
