package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// TestProcGoexitUnwindsRunCaller pins what runtime.Goexit in a process
// body (t.FailNow inside a process, say) does. The process runs as a
// coroutine of the goroutine that called Run, so the Goexit finishes the
// process and then exits that goroutine too, through its deferred
// calls: Run never returns. The kernel must not be left marked running.
func TestProcGoexitUnwindsRunCaller(t *testing.T) {
	k := NewKernel()
	var reached bool
	p := k.Spawn("quitter", func(p *Proc) {
		p.Delay(5)
		runtime.Goexit()
		reached = true
	})
	returned := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = k.Run()
		returned = true
	}()
	<-done
	if returned {
		t.Fatal("Run returned after a process called runtime.Goexit; want its caller's goroutine to exit")
	}
	if reached {
		t.Error("process body continued past runtime.Goexit")
	}
	if k.running {
		t.Error("kernel still marked running after the Goexit unwound Run")
	}
	if p.state != procDone {
		t.Errorf("process state = %s, want done", p.state)
	}
	if k.Now() != 5 {
		t.Errorf("clock = %d, want 5", k.Now())
	}
}

// TestFinishedProcessesReuseCoroutines checks that a finished process
// gives its coroutine back to the idle pool for the next process to
// start, and that the pool stops at maxIdle: coroutines finishing beyond
// it exit rather than wait.
func TestFinishedProcessesReuseCoroutines(t *testing.T) {
	busy := func() int { return runtime.NumGoroutine() - IdleCoroutines() }
	warm := NewKernel()
	warm.Spawn("warm", func(p *Proc) {})
	if err := warm.Run(); err != nil {
		t.Fatal(err)
	}
	idle, base := IdleCoroutines(), busy()

	// One process at a time: each reuses the coroutine the last one left.
	k := NewKernel()
	for i := 0; i < 1000; i++ {
		k.SpawnAt(Cycles(i), "short", func(p *Proc) { p.Delay(0) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := IdleCoroutines(); got != idle {
		t.Errorf("after 1000 processes in turn: %d idle coroutines, want %d", got, idle)
	}

	// More processes alive at once than the pool keeps.
	k = NewKernel()
	gate := NewGate(k, "burst")
	for i := 0; i < maxIdle+10; i++ {
		k.Spawn("burst", gate.Wait)
	}
	k.After(1, gate.Open)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := IdleCoroutines(); got != maxIdle {
		t.Errorf("after a burst of %d processes: %d idle coroutines, want %d", maxIdle+10, got, maxIdle)
	}
	if got := busy(); got > base {
		t.Errorf("%d goroutines besides idle coroutines, want at most %d", got, base)
	}
}

// windowWorkload spawns three workers with uneven delays feeding a
// daemon sink through a Queue, and records every step as
// "cycle proc step".
func windowWorkload(k *Kernel) *[]string {
	var trace []string
	q := NewQueue[int](k, "q")
	for i := 0; i < 3; i++ {
		i := i
		k.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			for step := 0; step < 40; step++ {
				p.Delay(Cycles(1 + (i*7+step*3)%11))
				trace = append(trace, fmt.Sprintf("%d %s %d", p.Now(), p.Name(), step))
				q.Push(step)
			}
		})
	}
	k.SpawnDaemon("sink", func(p *Proc) {
		for step := 0; ; step++ {
			q.Pop(p)
			p.Delay(2)
			trace = append(trace, fmt.Sprintf("%d %s %d", p.Now(), p.Name(), step))
		}
	})
	return &trace
}

// TestRunUntilWindowsFromAlternatingGoroutines drives one kernel through
// RunUntil windows from two goroutines in turn, as PDES workers do when
// each window's kernel goes to whichever worker picks it up, and checks
// the run matches the same windows driven from one goroutine.
func TestRunUntilWindowsFromAlternatingGoroutines(t *testing.T) {
	const window = 7
	serial := NewKernel()
	want := windowWorkload(serial)
	for end := Cycles(window); serial.Pending() > 0; end += window {
		if err := serial.RunUntil(end); err != nil {
			t.Fatal(err)
		}
	}

	k := NewKernel()
	got := windowWorkload(k)
	var work [2]chan Cycles
	results := make(chan error)
	for w := range work {
		work[w] = make(chan Cycles)
		go func(in chan Cycles) {
			for end := range in {
				results <- k.RunUntil(end)
			}
		}(work[w])
	}
	windows := 0
	for end := Cycles(window); k.Pending() > 0; end += window {
		work[windows%2] <- end
		if err := <-results; err != nil {
			t.Fatal(err)
		}
		windows++
	}
	for _, in := range work {
		close(in)
	}
	defer k.Release()
	defer serial.Release()

	if windows < 10 {
		t.Fatalf("only %d windows: the workload no longer spans enough of them", windows)
	}
	if g, w := strings.Join(*got, "\n"), strings.Join(*want, "\n"); g != w {
		t.Errorf("trace driven from two goroutines differs from one goroutine:\n got: %.300s\nwant: %.300s", g, w)
	}
	if k.Events() != serial.Events() {
		t.Errorf("Events() = %d from two goroutines, %d from one", k.Events(), serial.Events())
	}
	if len(*want) != 3*40*2 {
		t.Errorf("trace has %d steps, want %d", len(*want), 3*40*2)
	}
}
