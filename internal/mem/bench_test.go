package mem

import "testing"

// The mem structures are untimed: package scc charges the simulated
// cycles of a store or a fill (see BenchmarkCtxMPB there). These
// benchmarks therefore report the per-op structural work the cost model
// is applied to — lines drained, lines evicted — next to ns/op and
// allocs/op.

// BenchmarkWCBWrite streams a 1 KiB message through the WCB in 8-byte
// stores, as a core's copy loop does: 32 lines merged and drained.
func BenchmarkWCBWrite(b *testing.B) {
	var w WCB
	var p Pending
	data := make([]byte, 8)
	const msg = 1024
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for off := 0; off < msg; off += len(data) {
			w.Write(uint64(off/LineSize), off%LineSize, data, &p)
		}
		w.Flush(&p)
	}
	b.ReportMetric(float64(w.Stats().Drains)/float64(b.N), "drains/op")
}

// BenchmarkL1 fills a 256-line L1 with 512 lines (half of them evict),
// looks each up, and invalidates it all, the access pattern of a
// receiver copying 16 KiB out of MPB memory and then polling a flag.
func BenchmarkL1(b *testing.B) {
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
	round() // grow the slots and the index to capacity
	evicted := c.Stats().Evictions
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.ReportMetric(float64(c.Stats().Evictions-evicted)/float64(b.N), "evictions/op")
}
