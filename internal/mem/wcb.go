package mem

// WCB models the SCC's write-combine buffer: a single 32-byte line buffer
// between a core and the mesh that merges consecutive stores to the same
// line into one mesh transaction. It drains when the core writes a
// different line or flushes explicitly. The paper exploits this to fuse
// the three vDMA control registers (address, count, control), allocated
// contiguously with 32 B alignment, into a single remote write.
type WCB struct {
	valid bool
	key   uint64
	buf   [LineSize]byte
	mask  uint32 // bit i set = byte i written

	merges  uint64
	drains  uint64
	partial uint64
}

// Pending describes a drained WCB line to be written to memory.
type Pending struct {
	Key  uint64
	Data [LineSize]byte
	Mask uint32 // which bytes are valid
}

// Full reports whether every byte of the pending line was written.
func (p Pending) Full() bool { return p.Mask == 0xFFFFFFFF }

// Bytes returns the number of valid bytes in the pending line.
func (p Pending) Bytes() int {
	n := 0
	for m := p.Mask; m != 0; m &= m - 1 {
		n++
	}
	return n
}

// Write merges a store of data at byte offset off into the line keyed by
// key. If the WCB currently holds a different line, that line drains
// into *out and Write reports true; otherwise *out is untouched.
// len(data) must fit in the line.
func (w *WCB) Write(key uint64, off int, data []byte, out *Pending) (drained bool) {
	if off < 0 || off+len(data) > LineSize {
		panic("mem: WCB write outside line")
	}
	if w.valid && w.key != key {
		w.take(out)
		drained = true
	}
	if !w.valid {
		w.valid = true
		w.key = key
		w.mask = 0
	} else {
		w.merges++
	}
	copy(w.buf[off:], data)
	w.mask |= byteMask(off, len(data))
	return drained
}

// byteMask selects the n bytes starting at byte off of a line.
func byteMask(off, n int) uint32 {
	return uint32((uint64(1)<<uint(n) - 1) << uint(off))
}

// Flush drains the buffered line, if any, into *out and reports whether
// there was one.
func (w *WCB) Flush(out *Pending) bool {
	if !w.valid {
		return false
	}
	w.take(out)
	return true
}

// Dirty reports whether a line is buffered.
func (w *WCB) Dirty() bool { return w.valid }

// PendingKey returns the key of the buffered line, if any — consumed by
// the scc consistency checker to flag reads overlapping combined stores.
func (w *WCB) PendingKey() (key uint64, ok bool) { return w.key, w.valid }

func (w *WCB) take(out *Pending) {
	*out = Pending{Key: w.key, Data: w.buf, Mask: w.mask}
	w.valid = false
	w.drains++
	if !out.Full() {
		w.partial++
	}
}

// WCBStats is a snapshot of write-combine counters.
type WCBStats struct {
	Merges, Drains, PartialDrains uint64
}

// Stats returns counters accumulated since creation.
func (w *WCB) Stats() WCBStats {
	return WCBStats{Merges: w.merges, Drains: w.drains, PartialDrains: w.partial}
}

// MaskedRuns calls fn for each maximal run of mask-selected bytes of a
// line write, lowest offset first; i is the run's offset in the line.
// Bytes past the line (or past data) are never selected.
func MaskedRuns(data []byte, mask uint32, fn func(i int, run []byte)) {
	if len(data) > LineSize {
		data = data[:LineSize]
	}
	for i := 0; i < len(data); {
		if mask&(1<<uint(i)) == 0 {
			i++
			continue
		}
		j := i
		for j < len(data) && mask&(1<<uint(j)) != 0 {
			j++
		}
		fn(i, data[i:j])
		i = j
	}
}
