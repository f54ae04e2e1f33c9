//go:build go1.23

package sim

import (
	"iter"
	"sync"
)

// coroutine is a goroutine-backed coroutine (iter.Pull) that runs
// process bodies, one at a time. A process takes one at its first
// dispatch; the run loop calls resume to run the process until it
// blocks or finishes, and the process calls yield to block. resume may
// be called from any goroutine, since calls never overlap. When a body
// finishes, the coroutine goes back to the idle pool instead of
// exiting, and the next process to start reuses it.
//
// Reuse is not only a saved goroutine start. The race detector never
// frees the state of a coroutine that exits (go1.24: about 5 KB each),
// and the model spawns a process per DMA copy, prefetch and stream, so
// a race-enabled test binary that gave every process its own coroutine
// grew by gigabytes.
type coroutine struct {
	p      *Proc // the process it runs; nil while idle
	resume func() (struct{}, bool)
	yield  func(struct{}) bool
	stop   func()
}

// maxIdle bounds the idle pool; a coroutine finishing beyond it exits.
const maxIdle = 1024

// idle is the process-wide pool of coroutines waiting for a process.
// Kernels driven from different goroutines (parallel sweeps, PDES
// workers) share it, hence the lock.
var idle struct {
	sync.Mutex
	list []*coroutine
}

// startCoroutine binds p to an idle coroutine, or to a new one.
func startCoroutine(p *Proc) {
	var c *coroutine
	idle.Lock()
	if n := len(idle.list); n > 0 {
		c = idle.list[n-1]
		idle.list[n-1] = nil
		idle.list = idle.list[:n-1]
	}
	idle.Unlock()
	if c == nil {
		c = new(coroutine)
		c.resume, c.stop = iter.Pull(func(yield func(struct{}) bool) {
			c.yield = yield
			for {
				c.p.k.runBody(c.p)
				c.p = nil
				if !yield(struct{}{}) {
					return // stopped: the idle pool was full
				}
			}
		})
	}
	c.p = p
	p.co = c
}

// resume runs p until it blocks or finishes, and returns the coroutine
// of a finished process to the idle pool.
func (p *Proc) resume() {
	p.co.resume()
	if p.state != procDone {
		return
	}
	c := p.co
	p.co = nil
	idle.Lock()
	if len(idle.list) < maxIdle {
		idle.list = append(idle.list, c)
		c = nil
	}
	idle.Unlock()
	if c != nil {
		c.stop()
	}
}

// IdleCoroutines reports how many coroutines wait in the idle pool.
// Each is a parked goroutine that holds no simulation state, so a leak
// check that counts goroutines subtracts them.
func IdleCoroutines() int {
	idle.Lock()
	defer idle.Unlock()
	return len(idle.list)
}
