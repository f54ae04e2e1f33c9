package scc

import (
	"testing"

	"vscc/internal/sim"
)

// ctxOps are the warmed core operations whose steady state must not
// allocate: a 1 KiB write plus flush to the core's own tile, a read that
// hits the L1, and a read that misses it and fetches from a tile five
// hops away.
var ctxOps = []struct {
	name string
	op   func(c *Ctx, buf []byte)
}{
	{"write+flush", func(c *Ctx, buf []byte) {
		c.WriteMPB(0, 0, 0, buf)
		c.FlushWCB()
	}},
	{"read-hit", func(c *Ctx, buf []byte) {
		c.ReadMPB(0, 5, 0, buf)
	}},
	{"read-miss", func(c *Ctx, buf []byte) {
		c.InvalidateMPB()
		c.ReadMPB(0, 5, 0, buf)
	}},
}

// runOnCore runs body as the process of core 0 of a fresh chip.
func runOnCore(t testing.TB, body func(c *Ctx)) {
	t.Helper()
	k := sim.NewKernel()
	newTestChip(k).Launch(0, "p", body)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestCtxLinePathAllocationFree guards the allocation-free line path:
// the WCB drains into the Ctx's scratch line and an L1 miss fetches into
// it, so none of the warmed operations allocates.
func TestCtxLinePathAllocationFree(t *testing.T) {
	for _, tc := range ctxOps {
		var allocs float64
		runOnCore(t, func(c *Ctx) {
			buf := make([]byte, 1024)
			tc.op(c, buf)
			allocs = testing.AllocsPerRun(20, func() { tc.op(c, buf) })
		})
		if allocs != 0 {
			t.Errorf("%s allocates %.1f times per 1 KiB, want 0", tc.name, allocs)
		}
	}
}

// BenchmarkCtxMPB measures the core's MPB operations on 1 KiB: a write
// plus WCB flush to the local tile, an L1-hit read and an L1-miss read
// from a tile five hops away, reporting simulated cycles per op.
func BenchmarkCtxMPB(b *testing.B) {
	for _, tc := range ctxOps {
		b.Run(tc.name, func(b *testing.B) {
			runOnCore(b, func(c *Ctx) {
				buf := make([]byte, 1024)
				tc.op(c, buf)
				b.ReportAllocs()
				b.ResetTimer()
				t0 := c.Now()
				for i := 0; i < b.N; i++ {
					tc.op(c, buf)
				}
				b.StopTimer()
				b.ReportMetric(float64(c.Now()-t0)/float64(b.N), "sim-cycles/op")
			})
		})
	}
}
