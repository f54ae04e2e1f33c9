// Fixture for the kernelclock rule in its engine mode (internal/sim):
// the PDES workers' real concurrency is the sanctioned channel, so
// sync, channels, goroutines, select and coroutines pass — but the wall clock and
// process-global randomness stay banned even here, so sub-kernel code
// cannot smuggle real time in through the engine.
package kernelclock_engine

import (
	"iter"
	"math/rand" // want "import of math/rand"
	"sync"
	"time" // want "import of time in the simulation engine"
)

var mu sync.Mutex // ok: worker coordination is sanctioned in the engine

func workers() {
	done := make(chan int) // ok: engine handoff channel
	go func() {            // ok: PDES worker goroutine
		mu.Lock()
		defer mu.Unlock()
		done <- 1 // ok
	}()
	select { // ok: engine may multiplex worker channels
	case v := <-done:
		_ = v
	}
}

func coroutine(seq iter.Seq[struct{}]) {
	next, _ := iter.Pull(seq) // ok: the kernel runs every process on a coroutine
	next()
}

func wallClock() {
	_ = time.Now()     // want "time.Now"
	time.Sleep(1)      // want "time.Sleep"
	_ = rand.Intn(100) // ok: the import line already carries the finding
}
