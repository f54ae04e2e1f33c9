package sim

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// TestKillWakesParkedProcess: a process parked forever unwinds with the
// kill error at the kill cycle, and the run completes without treating
// the unwound body as a kernel panic.
func TestKillWakesParkedProcess(t *testing.T) {
	k := NewKernel()
	errKill := errors.New("abort")
	var got error
	var at Cycles
	p := k.Spawn("victim", func(p *Proc) {
		defer func() {
			if r := recover(); r != nil {
				got = r.(error)
				at = p.Now()
			}
		}()
		p.Park("forever")
		t.Error("victim resumed past its park")
	})
	k.At(100, func() { p.Kill(errKill) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != errKill {
		t.Fatalf("recovered %v, want %v", got, errKill)
	}
	if at != 100 {
		t.Errorf("killed at cycle %d, want 100", at)
	}
}

// TestKillWithoutRecoverIsNotAKernelPanic: a body with no recover of its
// own unwinds cleanly; Run reports neither a panic nor a deadlock.
func TestKillWithoutRecoverIsNotAKernelPanic(t *testing.T) {
	k := NewKernel()
	p := k.Spawn("victim", func(p *Proc) {
		p.Park("forever")
	})
	k.At(10, func() { p.Kill(errors.New("abort")) })
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestKillDelayedProcess: a pending kill is delivered when a Delay
// expires, including across the inline continuation fast path.
func TestKillDelayedProcess(t *testing.T) {
	k := NewKernel()
	errKill := errors.New("abort")
	var got error
	p := k.Spawn("victim", func(p *Proc) {
		defer func() { got, _ = recover().(error) }()
		for {
			p.Delay(7)
		}
	})
	k.At(100, func() { p.Kill(errKill) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != errKill {
		t.Fatalf("recovered %v, want %v", got, errKill)
	}
}

// TestKillCondWaiterLeavesStaleSlotSafe: killing a process parked on a
// Cond leaves its waiter slot behind; later Signal and Broadcast calls
// must skip the stale slot (not unpark a non-blocked process) and still
// deliver the wakeup to a live waiter.
func TestKillCondWaiterLeavesStaleSlotSafe(t *testing.T) {
	k := NewKernel()
	c := NewCond(k, "c")
	var lateWoken bool
	k.Spawn("victim", func(p *Proc) {
		c.Wait(p)
		t.Error("victim woke instead of dying")
	})
	k.Spawn("late", func(p *Proc) {
		p.Delay(50) // parks on c after the kill below
		c.Wait(p)
		lateWoken = true
	})
	k.Spawn("killer", func(p *Proc) {
		p.Delay(10)
		for _, q := range k.procs {
			if q.name == "victim" {
				q.Kill(errors.New("abort"))
			}
		}
		p.Delay(100)
		c.Signal() // must skip the victim's stale slot
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !lateWoken {
		t.Error("late waiter never received the signal")
	}
}

// TestKillCondWaiterTimeoutSkipsStaleSlot: an armed Timeout whose waiter
// was killed before the deadline must not unpark the dead process.
func TestKillCondWaiterTimeoutSkipsStaleSlot(t *testing.T) {
	k := NewKernel()
	c := NewCond(k, "c")
	var p *Proc
	p = k.Spawn("victim", func(p *Proc) {
		to := c.ArmTimeout(1000)
		defer to.Cancel()
		c.WaitOrTimeout(p, to)
		t.Error("victim woke instead of dying")
	})
	k.At(10, func() { p.Kill(errors.New("abort")) })
	if err := k.RunFor(5000); err != nil {
		t.Fatal(err)
	}
}

// TestKillBeforeFirstDispatch: killing a spawned-but-not-started process
// aborts it without running its body.
func TestKillBeforeFirstDispatch(t *testing.T) {
	k := NewKernel()
	ran := false
	p := k.SpawnAt(100, "victim", func(p *Proc) { ran = true })
	k.At(0, func() { p.Kill(errors.New("abort")) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Error("killed process body ran")
	}
}

// TestKillFinishedProcessIsNoop and double-kill keeps the first error.
func TestKillIdempotence(t *testing.T) {
	k := NewKernel()
	err1, err2 := errors.New("first"), errors.New("second")
	var got error
	p := k.Spawn("victim", func(p *Proc) {
		defer func() { got, _ = recover().(error) }()
		p.Park("forever")
	})
	k.At(10, func() { p.Kill(err1); p.Kill(err2) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != err1 {
		t.Fatalf("recovered %v, want the first kill error", got)
	}
	p.Kill(err2) // after procDone: must be a no-op
}

// waitGoroutines polls until the goroutine count falls to want: a
// released process's goroutine exits just after handing the token back.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left, want at most %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestKernelRelease: Release unwinds a parked daemon, a blocked process
// (running its deferred handler), and one whose Delay wakeup is still
// queued, drops a process that never started, and leaves the clock and
// event count untouched.
func TestKernelRelease(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	c := NewCond(k, "never")
	k.SpawnDaemon("daemon", func(p *Proc) {
		for {
			c.Wait(p)
		}
	})
	unwound := false
	k.Spawn("stranded", func(p *Proc) {
		defer func() { unwound = true }()
		c.Wait(p)
	})
	k.Spawn("sleeper", func(p *Proc) { p.Delay(1000) })
	started := false
	k.SpawnAt(500, "late", func(p *Proc) { started = true })
	if err := k.RunUntil(100); err != nil {
		t.Fatal(err)
	}
	now, events := k.Now(), k.Events()
	k.Release()
	if !unwound {
		t.Error("the stranded process's deferred handler did not run")
	}
	if started {
		t.Error("a process that never started ran its body")
	}
	if k.Now() != now || k.Events() != events {
		t.Errorf("release moved the kernel: now %d->%d, events %d->%d", now, k.Now(), events, k.Events())
	}
	waitGoroutines(t, base)
}
