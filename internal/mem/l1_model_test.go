package mem

import (
	"math/rand"
	"slices"
	"testing"
)

// refL1 is the map-plus-order-slice L1 the slot ring replaced, kept as
// the reference model its eviction order must match.
type refL1 struct {
	lines    map[uint64]*[LineSize]byte
	order    []uint64
	maxLines int

	hits, misses, evictions, flushes uint64
}

func newRefL1(maxLines int) *refL1 {
	return &refL1{lines: make(map[uint64]*[LineSize]byte), maxLines: maxLines}
}

func (c *refL1) Lookup(key uint64) ([]byte, bool) {
	if ln, ok := c.lines[key]; ok {
		c.hits++
		return ln[:], true
	}
	c.misses++
	return nil, false
}

// Fill returns the evicted key, if any.
func (c *refL1) Fill(key uint64, data [LineSize]byte) (victim uint64, evicted bool) {
	if _, ok := c.lines[key]; !ok {
		if len(c.order) >= c.maxLines {
			victim, evicted = c.order[0], true
			c.order = c.order[1:]
			delete(c.lines, victim)
			c.evictions++
		}
		c.order = append(c.order, key)
	}
	d := data
	c.lines[key] = &d
	return victim, evicted
}

func (c *refL1) UpdateIfPresent(key uint64, off int, data []byte) {
	if ln, ok := c.lines[key]; ok {
		copy(ln[off:], data)
	}
}

func (c *refL1) InvalidateAll() {
	c.lines = make(map[uint64]*[LineSize]byte)
	c.order = c.order[:0]
	c.flushes++
}

// residentOrder lists the L1's resident keys oldest first.
func residentOrder(c *L1) []uint64 {
	var out []uint64
	for i := range c.slots {
		out = append(out, c.slots[(c.head+i)%len(c.slots)].key)
	}
	return out
}

// TestL1MatchesReferenceModel drives random Fill / Lookup /
// UpdateIfPresent / InvalidateAll sequences through the slot ring and
// the reference model and requires the same hits, misses, data, eviction
// victims and FIFO order after every step — including rings that wrap
// several times and then restart from slot 0 after an InvalidateAll.
func TestL1MatchesReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		capacity := 1 + rng.Intn(6)
		keys := uint64(capacity + 1 + rng.Intn(2*capacity))
		c, ref := NewL1(capacity), newRefL1(capacity)
		wraps := uint64(0)
		for step := 0; step < 400; step++ {
			key := uint64(rng.Int63n(int64(keys)))
			switch op := rng.Intn(20); {
			case op < 8:
				var line [LineSize]byte
				rng.Read(line[:])
				before := residentOrder(c)
				c.Fill(key, line)
				victim, evicted := ref.Fill(key, line)
				var gone []uint64
				for _, k := range before {
					if !c.Contains(k) {
						gone = append(gone, k)
					}
				}
				if evicted != (len(gone) == 1) || len(gone) > 1 || (evicted && gone[0] != victim) {
					t.Fatalf("trial %d step %d: Fill(%d) evicted %v, reference evicted %d (%v)", trial, step, key, gone, victim, evicted)
				}
				if evicted && c.head == 0 {
					wraps++
				}
			case op < 15:
				got, ok := c.Lookup(key)
				want, wantOK := ref.Lookup(key)
				if ok != wantOK || string(got) != string(want) {
					t.Fatalf("trial %d step %d: Lookup(%d) = %x,%v, reference %x,%v", trial, step, key, got, ok, want, wantOK)
				}
			case op < 19:
				off := rng.Intn(LineSize)
				data := make([]byte, 1+rng.Intn(LineSize-off))
				rng.Read(data)
				c.UpdateIfPresent(key, off, data)
				ref.UpdateIfPresent(key, off, data)
			default:
				c.InvalidateAll()
				ref.InvalidateAll()
			}
			if got := residentOrder(c); !slices.Equal(got, ref.order) {
				t.Fatalf("trial %d step %d: FIFO order %v, reference %v", trial, step, got, ref.order)
			}
			if c.Len() != len(ref.lines) || len(c.index) != len(ref.lines) {
				t.Fatalf("trial %d step %d: %d resident (%d indexed), reference %d", trial, step, c.Len(), len(c.index), len(ref.lines))
			}
			want := L1Stats{Hits: ref.hits, Misses: ref.misses, Evictions: ref.evictions, Flushes: ref.flushes}
			if s := c.Stats(); s != want {
				t.Fatalf("trial %d step %d: stats %+v, reference %+v", trial, step, s, want)
			}
		}
		if trial == 0 && wraps == 0 {
			t.Fatal("first trial never wrapped the slot ring; the sequence does not exercise eviction")
		}
	}
}

// FuzzWCBMask checks that the arithmetic byte mask a WCB write records
// selects exactly the bytes the store covered, for every (off, len).
func FuzzWCBMask(f *testing.F) {
	for _, c := range [][2]uint8{{0, 0}, {0, 1}, {0, 32}, {31, 1}, {8, 8}, {16, 16}, {1, 31}} {
		f.Add(c[0], c[1])
	}
	f.Fuzz(func(t *testing.T, off, n uint8) {
		o := int(off) % LineSize
		l := int(n) % (LineSize - o + 1)
		var loop uint32
		for i := 0; i < l; i++ {
			loop |= 1 << uint(o+i)
		}
		if m := byteMask(o, l); m != loop {
			t.Fatalf("byteMask(%d, %d) = %032b, per-byte loop %032b", o, l, m, loop)
		}
		if l == 0 {
			return
		}
		var w WCB
		var p Pending
		w.Write(1, o, make([]byte, l), &p)
		if !w.Flush(&p) || p.Mask != loop || p.Bytes() != l {
			t.Fatalf("Write(off %d, len %d) drained mask %032b (%d bytes), want %032b", o, l, p.Mask, p.Bytes(), loop)
		}
	})
}

// TestByteMaskEveryRange checks byteMask against the per-byte loop on
// every in-line (off, len), so the whole domain runs without -fuzz.
func TestByteMaskEveryRange(t *testing.T) {
	for off := 0; off < LineSize; off++ {
		for n := 0; off+n <= LineSize; n++ {
			var loop uint32
			for i := 0; i < n; i++ {
				loop |= 1 << uint(off+i)
			}
			if m := byteMask(off, n); m != loop {
				t.Fatalf("byteMask(%d, %d) = %032b, want %032b", off, n, m, loop)
			}
		}
	}
}

// TestLinePathAllocationFree guards the steady state of the per-line
// structures: a warmed L1 at capacity fills, evicts, looks up and
// invalidates, and a WCB merges and drains, without allocating.
func TestLinePathAllocationFree(t *testing.T) {
	const capacity = 256
	c := NewL1(capacity)
	var line [LineSize]byte
	round := func() {
		for k := uint64(0); k < 2*capacity; k++ {
			c.Fill(k, line)
			c.Lookup(k)
		}
		c.InvalidateAll()
	}
	round()
	if n := testing.AllocsPerRun(50, round); n != 0 {
		t.Errorf("L1 fill/evict/InvalidateAll round at capacity allocates %.1f times, want 0", n)
	}

	var w WCB
	var p Pending
	data := make([]byte, 8)
	if n := testing.AllocsPerRun(100, func() {
		for k := uint64(0); k < 4; k++ {
			for off := 0; off < LineSize; off += len(data) {
				w.Write(k, off, data, &p)
			}
		}
		w.Flush(&p)
	}); n != 0 {
		t.Errorf("WCB write/drain allocates %.1f times, want 0", n)
	}
}
