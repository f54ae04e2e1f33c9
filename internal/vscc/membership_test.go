package vscc

import (
	"testing"

	"vscc/internal/fault"
	"vscc/internal/rcce"
	"vscc/internal/scc"
	"vscc/internal/sim"
	"vscc/internal/trace"
)

// crashRig is one engine built under a device-fault schedule, as the
// lifecycle tests see it: probes scheduled on the faulted device's
// kernel read its lifecycle, and the fault ledger is read after the run.
type crashRig struct {
	// at schedules fn on the kernel that simulates device dev.
	at func(dev int, at sim.Cycles, fn func())
	// life returns device dev's lifecycle; read it from that device's
	// kernel (a probe) or after the run.
	life func(dev int) *devLifecycle
	// usable reports whether device dev's wire takes frames.
	usable func(dev int) bool
	// session builds a session over places.
	session func(places []rcce.Place) (*rcce.Session, error)
	// stat returns a fault-ledger total, e.g. "inject.devcrash".
	stat func(kind string) int64
}

// lifecycleEngines are the engines every lifecycle test runs on: the
// classic single kernel, and PDES serially and with two workers.
var lifecycleEngines = []struct {
	name    string
	workers int // 0 = classic
}{{"classic", 0}, {"pdes-1", 1}, {"pdes-2", 2}}

func newCrashRig(t *testing.T, workers int, cfg Config) crashRig {
	t.Helper()
	if workers == 0 {
		k := sim.NewKernel()
		sys, err := NewSystem(k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m := sys.Membership
		if m == nil {
			t.Fatal("device fault scheduled but no membership manager built")
		}
		return crashRig{
			at:      func(_ int, at sim.Cycles, fn func()) { k.At(at, fn) },
			life:    func(dev int) *devLifecycle { return m.devs[dev].devLifecycle },
			usable:  m.Usable,
			session: func(places []rcce.Place) (*rcce.Session, error) { return sys.NewSessionAt(places) },
			stat:    sys.Injector.Stat,
		}
	}
	sys, err := NewPDESSystem(cfg, workers)
	if err != nil {
		t.Fatal(err)
	}
	sinks := make([]*trace.Sink, sys.PDES.N())
	for i := range sinks {
		sinks[i] = trace.NewSink(sys.PDES.Kernel(i))
	}
	sys.Instrument(sinks)
	life := func(dev int) *devLifecycle { return sys.ports[dev].life }
	return crashRig{
		at:   func(dev int, at sim.Cycles, fn func()) { sys.PDES.Kernel(dev).At(at, fn) },
		life: life,
		usable: func(dev int) bool {
			s := life(dev).state
			return s == DevUp || s == DevDraining
		},
		session: func(places []rcce.Place) (*rcce.Session, error) { return sys.NewSessionAt(places) },
		stat: func(kind string) int64 {
			var n int64
			for _, s := range sinks {
				n += s.CounterValue("fault." + kind)
			}
			return n
		},
	}
}

// runCrossPair runs rounds of a 4 KiB exchange between one rank on each
// device; echo adds the reply leg.
func runCrossPair(t *testing.T, rig crashRig, rounds int, echo bool) error {
	t.Helper()
	session, err := rig.session([]rcce.Place{{Dev: 0, Core: 0}, {Dev: 1, Core: 0}})
	if err != nil {
		t.Fatal(err)
	}
	return session.Run(func(r *rcce.Rank) {
		buf := make([]byte, 4096)
		peer := 1 - r.ID()
		leg := func(send bool) {
			op := r.Recv
			if send {
				op = r.Send
			}
			if err := op(peer, buf); err != nil {
				panic(err)
			}
		}
		for rep := 0; rep < rounds; rep++ {
			leg(r.ID() == 0)
			if echo {
				leg(r.ID() == 1)
			}
		}
	})
}

// TestMembershipLifecycle drives one scheduled device crash through the
// full state machine on every engine and samples the lifecycle from
// probes on the device's kernel: Up until the fault fires, Draining for
// DefaultDrainCycles (wire still usable so committed traffic lands),
// Down with the epoch advanced and the wire refused, and Up again after
// the down window.
func TestMembershipLifecycle(t *testing.T) {
	const (
		crashAt = sim.Cycles(100_000)
		down    = sim.Cycles(300_000)
	)
	for _, eng := range lifecycleEngines {
		t.Run(eng.name, func(t *testing.T) {
			rig := newCrashRig(t, eng.workers, Config{
				Devices: 2,
				Scheme:  SchemeCachedGet,
				Faults: &fault.Config{
					Seed:       1,
					DevCrashAt: []fault.DeviceFault{{At: crashAt, Dev: 1, Down: down}},
					Recovery:   fault.Recovery{DeviceRetry: true},
				},
			})

			type sample struct {
				at     sim.Cycles
				state  DevState
				epoch  uint8
				usable bool
			}
			var got []sample
			probe := func(at sim.Cycles) {
				rig.at(1, at, func() {
					l := rig.life(1)
					got = append(got, sample{at, l.state, l.epoch, rig.usable(1)})
				})
			}
			drainMid := crashAt + fault.DefaultDrainCycles/2
			downStart := crashAt + fault.DefaultDrainCycles
			rejoinAt := downStart + down
			probe(crashAt - 1)     // still up
			probe(drainMid)        // draining, wire usable
			probe(downStart + 1)   // down, epoch advanced, wire refused
			probe(rejoinAt - 1)    // still down
			probe(rejoinAt + 1)    // back up
			probe(rejoinAt + 1000) // stays up

			// A long-enough workload keeps ranks alive across the whole outage.
			if err := runCrossPair(t, rig, 16, true); err != nil {
				t.Fatalf("run did not survive the crash: %v", err)
			}

			want := []sample{
				{crashAt - 1, DevUp, 0, true},
				{drainMid, DevDraining, 0, true},
				{downStart + 1, DevDown, 1, false},
				{rejoinAt - 1, DevDown, 1, false},
				{rejoinAt + 1, DevUp, 1, true},
				{rejoinAt + 1000, DevUp, 1, true},
			}
			if len(got) != len(want) {
				t.Fatalf("sampled %d probes, want %d (run too short?)", len(got), len(want))
			}
			for i, w := range want {
				if got[i] != w {
					t.Errorf("probe %d at cycle %d: got {state=%v epoch=%d usable=%v}, want {state=%v epoch=%d usable=%v}",
						i, w.at, got[i].state, got[i].epoch, got[i].usable, w.state, w.epoch, w.usable)
				}
			}

			// Device 0 never faulted: untouched state, epoch zero.
			if l := rig.life(0); l.state != DevUp || l.epoch != 0 {
				t.Errorf("device 0 disturbed: state=%v epoch=%d", l.state, l.epoch)
			}
			// The lifecycle leaves the ledger balanced: one injection, one rejoin.
			if got := rig.stat("inject.devcrash"); got != 1 {
				t.Errorf("inject.devcrash = %d, want 1", got)
			}
			if got := rig.stat("recover.rejoin"); got != 1 {
				t.Errorf("recover.rejoin = %d, want 1", got)
			}
		})
	}
}

// TestMembershipVoidOverlap schedules a second fault inside the first
// outage window on every engine: it must be void (the device is not
// up), must not keep the checkpoint chain alive so the run still
// terminates, and must leave a single epoch advance.
func TestMembershipVoidOverlap(t *testing.T) {
	for _, eng := range lifecycleEngines {
		t.Run(eng.name, func(t *testing.T) {
			rig := newCrashRig(t, eng.workers, Config{
				Devices: 2,
				Scheme:  SchemeCachedGet,
				Faults: &fault.Config{
					Seed: 1,
					DevCrashAt: []fault.DeviceFault{
						{At: 100_000, Dev: 1, Down: 300_000},
						{At: 200_000, Dev: 1, Down: 300_000}, // inside the first outage: void
					},
					Recovery: fault.Recovery{DeviceRetry: true},
				},
			})
			if err := runCrossPair(t, rig, 16, false); err != nil {
				t.Fatalf("run failed: %v", err)
			}
			if got := rig.stat("inject.devcrash"); got != 1 {
				t.Errorf("inject.devcrash = %d, want 1 (the overlapping fault must be void)", got)
			}
			if ep := rig.life(1).epoch; ep != 1 {
				t.Errorf("epoch = %d, want 1", ep)
			}
		})
	}
}

// TestMembershipBackToBackCrash drives two real outages of the same
// device separated only by the rejoin, with a third schedule entry
// landing mid-drain, on every engine. The mid-drain fault must be void
// (no second drain restart, no injection); the post-rejoin fault is a
// genuine second crash — it may land while the rejoin replay is still
// in flight and must run a full second lifecycle with its own epoch
// advance. The workload survives both outages transparently.
func TestMembershipBackToBackCrash(t *testing.T) {
	const (
		firstAt  = sim.Cycles(100_000)
		firstDur = sim.Cycles(300_000) // down 150k..450k
		midDrain = sim.Cycles(120_000) // inside 100k..150k: void
		secondAt = sim.Cycles(460_000) // 10k after the rejoin
		secondD  = sim.Cycles(300_000) // down 510k..810k
	)
	for _, eng := range lifecycleEngines {
		t.Run(eng.name, func(t *testing.T) {
			rig := newCrashRig(t, eng.workers, Config{
				Devices: 2,
				Scheme:  SchemeCachedGet,
				Faults: &fault.Config{
					Seed: 1,
					DevCrashAt: []fault.DeviceFault{
						{At: firstAt, Dev: 1, Down: firstDur},
						{At: midDrain, Dev: 1, Down: firstDur},
						{At: secondAt, Dev: 1, Down: secondD},
					},
					Recovery: fault.Recovery{DeviceRetry: true},
				},
			})

			type sample struct {
				at    sim.Cycles
				state DevState
				epoch uint8
			}
			var got []sample
			probe := func(at sim.Cycles) {
				rig.at(1, at, func() {
					l := rig.life(1)
					got = append(got, sample{at, l.state, l.epoch})
				})
			}
			probe(midDrain + 10_000) // still the FIRST drain; the void fault must not restart it
			probe(firstAt + fault.DefaultDrainCycles + 1)
			probe(secondAt + 1) // second crash accepted: draining again
			probe(secondAt + fault.DefaultDrainCycles + 1)
			probe(secondAt + fault.DefaultDrainCycles + secondD + 1)

			if err := runCrossPair(t, rig, 24, true); err != nil {
				t.Fatalf("run did not survive back-to-back crashes: %v", err)
			}

			want := []sample{
				{midDrain + 10_000, DevDraining, 0},
				{firstAt + fault.DefaultDrainCycles + 1, DevDown, 1},
				{secondAt + 1, DevDraining, 1},
				{secondAt + fault.DefaultDrainCycles + 1, DevDown, 2},
				{secondAt + fault.DefaultDrainCycles + secondD + 1, DevUp, 2},
			}
			if len(got) != len(want) {
				t.Fatalf("sampled %d probes, want %d (run too short?)", len(got), len(want))
			}
			for i, w := range want {
				if got[i] != w {
					t.Errorf("probe %d at cycle %d: got {state=%v epoch=%d}, want {state=%v epoch=%d}",
						i, w.at, got[i].state, got[i].epoch, w.state, w.epoch)
				}
			}
			if got := rig.stat("inject.devcrash"); got != 2 {
				t.Errorf("inject.devcrash = %d, want 2 (mid-drain fault must be void)", got)
			}
			if got := rig.stat("recover.rejoin"); got != 2 {
				t.Errorf("recover.rejoin = %d, want 2", got)
			}
			if ep := rig.life(1).epoch; ep != 2 {
				t.Errorf("final epoch = %d, want 2", ep)
			}
		})
	}
}

// TestMembershipNotBuiltWithoutDeviceFaults pins the arming condition:
// a fault config without device faults must leave Membership nil, so
// every non-device-fault run keeps its byte-identical code paths.
func TestMembershipNotBuiltWithoutDeviceFaults(t *testing.T) {
	k := sim.NewKernel()
	sys, err := NewSystem(k, Config{
		Devices: 2,
		Scheme:  SchemeCachedGet,
		Faults:  &fault.Config{Seed: 1, DropPer10k: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Membership != nil {
		t.Error("membership manager built without any device fault scheduled")
	}
}

// A periodic checkpoint copies the chip's LMBs straight into the log's
// reused snapshot buffers: after the boot checkpoint it allocates
// nothing, and the snapshot still tracks the live memory.
func TestPeriodicCheckpointAllocationFree(t *testing.T) {
	k := sim.NewKernel()
	chip := scc.NewChip(k, 0, scc.DefaultParams())
	l := newDevLifecycle(k, chip, crashTiming{interval: 1000}, lifecycleHooks{})
	chip.HostWriteLMB(3, 64, []byte{7})
	if n := testing.AllocsPerRun(20, l.checkpoint); n != 0 {
		t.Errorf("periodic checkpoint allocates %.1f times, want 0", n)
	}
	if w, _ := l.log.TailLen(); w != 0 {
		t.Errorf("journal holds %d records after a checkpoint, want 0", w)
	}
	img, _, _ := l.log.Restore()
	if len(img) != scc.NumTiles || img[3][64] != 7 {
		t.Error("checkpoint image misses a store made before it")
	}
}
