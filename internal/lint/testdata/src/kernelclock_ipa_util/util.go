// Helper-package fixture loaded as a dependency of kernelclock_ipa: it
// sits outside the audited model/engine set, so its own wall-clock and
// concurrency uses are not findings here — they become findings at the
// model-package call sites that reach them.
package util

import (
	"iter"
	"time"
)

// SlowStamp reads the wall clock directly.
func SlowStamp() int64 { return time.Now().UnixNano() }

// stampIndirect hides the clock behind one more hop.
func stampIndirect() int64 { return SlowStamp() }

// Stamp2 is the exported entry of the two-hop chain.
func Stamp2() int64 { return stampIndirect() }

// FanOut spawns a raw goroutine.
func FanOut(f func()) { go f() }

// Drain runs seq on a coroutine.
func Drain(seq iter.Seq[int]) {
	next, stop := iter.Pull(seq)
	defer stop()
	for _, ok := next(); ok; _, ok = next() {
	}
}

// Pure is effect-free.
func Pure(a, b int) int { return a + b }
