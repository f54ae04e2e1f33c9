// Fixture for the transitive kernelclock extension: calls from a model
// package into helper code that reaches the wall clock or raw
// concurrency — however many hops away — are reported at the model-side
// call site with the offending chain; effect-free helpers stay clean.
package noc

import "vscc/internal/util"

func badStamp() int64 {
	return util.SlowStamp() // want "call reaches time.Now: util.SlowStamp"
}

func badStampDeep() int64 {
	return util.Stamp2() // want "call reaches time.Now: util.Stamp2 → util.stampIndirect → util.SlowStamp"
}

func badFanOut() {
	util.FanOut(func() {}) // want "call reaches raw concurrency .goroutine. outside the engine: util.FanOut"
}

func badCoroutine() {
	util.Drain(nil) // want "call reaches raw concurrency .iter.Pull. outside the engine: util.Drain"
}

func cleanHelper() int {
	return util.Pure(1, 2)
}

func provenBenign() int64 {
	//lint:ignore kernelclock proof: only reachable from the offline report generator, never inside a sweep
	return util.SlowStamp()
}
