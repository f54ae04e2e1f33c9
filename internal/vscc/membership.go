package vscc

// Device-level crash recovery (DESIGN.md §8): epoch-based membership,
// crash-consistent checkpoints and drain/replay failover for whole SCC
// devices. The research system's five boards fail independently — a
// board-level power glitch or a PCIe link drop takes 48 cores away at
// once, and the previous prototype had no answer short of restarting
// the whole 240-core run. Membership models the failure as a per-device
// state machine
//
//	Up -> Draining -> Down -> Rejoining -> Up
//
// with three guarantees:
//
//   - Epochs: every SIF frame is stamped with the target device's
//     membership epoch (pcie.Header.Epoch). The epoch advances when the
//     device goes down, so pre-crash traffic surfacing after the rejoin
//     is rejected at the framing layer and recovered by re-stamped
//     retransmission — cross-epoch confusion is structurally impossible.
//   - Checkpoints: a kernel-clock-driven daemon snapshots each device's
//     on-chip memory at quiesce points; every store since the snapshot
//     is journaled (scc write observer -> ckpt.Log), so the crash-point
//     image is reconstructible byte-exactly at any instant.
//   - Drain/replay: on a crash the device first drains — committed
//     in-flight transfers land and are journaled — then goes down: its
//     memory is wiped, the host marks it unreachable, and every frame
//     still in the PCIe journals is held. On rejoin the memory image is
//     restored, the fabric replays the held frames in sequence order in
//     the new epoch, and blocked peers resume. The run completes
//     byte-identically to a fault-free execution.
//
// A link-down fault is the lighter variant: the wire dies but the board
// keeps power, so there is no wipe/restore — cores keep computing
// on-chip and only off-chip traffic is held and replayed.

import (
	"fmt"
	"strconv"

	"vscc/internal/ckpt"
	"vscc/internal/fault"
	"vscc/internal/host"
	"vscc/internal/pcie"
	"vscc/internal/scc"
	"vscc/internal/sim"
	"vscc/internal/trace"
)

// DevState is one device's membership state.
type DevState int

// The membership states, in lifecycle order.
const (
	// DevUp: fully operational.
	DevUp DevState = iota
	// DevDraining: a fault fired; committed in-flight traffic still
	// lands (the wire stays usable) but crashed cores are already
	// frozen. Lasts fault.DefaultDrainCycles.
	DevDraining
	// DevDown: the device is gone — memory wiped (crash) or the link
	// dead (link-down); all frames toward and from it are held in the
	// senders' journals.
	DevDown
	// DevRejoining: the checkpoint image is being restored; passed
	// through atomically on the way back to DevUp.
	DevRejoining
)

// String names the state for test failures and traces.
func (s DevState) String() string {
	switch s {
	case DevUp:
		return "up"
	case DevDraining:
		return "draining"
	case DevDown:
		return "down"
	case DevRejoining:
		return "rejoining"
	}
	return "invalid"
}

// devLifecycle is one device's crash lifecycle. It lives on the kernel
// that simulates the device — the classic engine's single kernel, or
// the device's own kernel under PDES — and touches no state outside it.
// It owns the membership state and epoch, the chip lifecycle gate (closed
// while the device is crashed, so its cores freeze at their next memory
// operation and thaw on rejoin), the checkpoint journal with its boot and
// periodic snapshots, and the ckpt.*, epoch.advance and replay.*
// counters. What differs between the engines is passed in as hooks.
type devLifecycle struct {
	k     *sim.Kernel
	dev   int
	chip  *scc.Chip
	sink  *trace.Sink
	drain sim.Cycles
	hooks lifecycleHooks

	state DevState
	epoch uint8
	gate  *sim.Gate
	log   *ckpt.Log
	// img is the restore image captured at the crash point, with the
	// journal-replay totals for the replay.* counters.
	img                 [][]byte
	imgWrites, imgBytes int
}

// lifecycleHooks are the engine-specific steps of a device lifecycle.
// Every hook runs on the device's kernel; nil hooks are skipped.
type lifecycleHooks struct {
	// injected records a fault taking effect (kind "devcrash" or
	// "devlinkdown"); recovered records the rejoin. Both are required.
	injected  func(kind string)
	recovered func()
	// down runs once the device is down: epoch advanced, memory wiped.
	down func()
	// replay runs once the device is up again, before its lifecycle gate
	// reopens; up runs last, after the recovery is recorded.
	replay, up func()
	// ticking is asked as each periodic checkpoint fires: false ends the
	// chain. A counter of unfinished faults fits the single-kernel engine;
	// it would race across kernels, so PDES bounds the chain by a static
	// horizon instead: no checkpoint is rearmed after that cycle.
	ticking func() bool
	horizon sim.Cycles
}

// crashTiming is the lifecycle timing a fault schedule fixes for every
// device.
type crashTiming struct {
	drain, rejoin, interval sim.Cycles
}

func newCrashTiming(cfg fault.Config) crashTiming {
	t := crashTiming{drain: fault.DefaultDrainCycles, rejoin: cfg.RejoinCycles, interval: cfg.CkptInterval}
	if t.rejoin <= 0 {
		t.rejoin = fault.DefaultRejoinCycles
	}
	if t.interval <= 0 {
		t.interval = fault.DefaultCkptInterval
	}
	return t
}

// outage is how long a scheduled fault keeps its device down.
func (t crashTiming) outage(df fault.DeviceFault) sim.Cycles {
	if df.Down > 0 {
		return df.Down
	}
	return t.rejoin
}

// newDevLifecycle wires the lifecycle gate and checkpoint journal into
// the chip, takes the boot checkpoint and starts the periodic ones.
func newDevLifecycle(k *sim.Kernel, chip *scc.Chip, t crashTiming, h lifecycleHooks) *devLifecycle {
	l := &devLifecycle{
		k: k, dev: chip.Index, chip: chip, drain: t.drain, hooks: h,
		gate: sim.NewGate(k, fmt.Sprintf("dev%d.alive", chip.Index)),
		log:  ckpt.NewLog(),
	}
	l.gate.Open()
	chip.SetLifecycleGate(l.gate)
	chip.SetWriteObserver(func(tile, off int, data []byte) {
		l.log.Note(tile, off, data)
	})
	// Checkpoint zero: the boot image. It guarantees a restore base
	// exists even for a crash before the first interval tick — the
	// journal then replays the whole history, which is correct if
	// slow; the periodic checkpoints exist to truncate it.
	l.log.CheckpointFrom(chip.SnapshotLMBInto)
	// Periodic checkpoints run as a self-rescheduling timer chain, not a
	// Delay-looping daemon: the chain stops once every scheduled fault
	// has completed, so the kernel's event queue can drain.
	var tick func()
	tick = func() {
		if h.ticking != nil && !h.ticking() {
			return
		}
		l.checkpoint()
		if h.horizon == 0 || k.Now() <= h.horizon {
			k.After(t.interval, tick)
		}
	}
	k.After(t.interval, tick)
	return l
}

// count records a lifecycle counter and its per-device mirror. The
// dynamic per-device name is only built once the sink is known enabled.
func (l *devLifecycle) count(name string, v int64) {
	if !l.sink.Enabled() {
		return
	}
	l.sink.Add(name, v)
	l.sink.Add(name+".d"+strconv.Itoa(l.dev), v)
}

// lost reports whether the device is unreachable (false on a nil
// lifecycle: no device fault is armed).
func (l *devLifecycle) lost() bool {
	return l != nil && (l.state == DevDown || l.state == DevRejoining)
}

// checkpoint takes one periodic snapshot of an up device. A draining or
// down device is skipped: its image is frozen at the crash point.
func (l *devLifecycle) checkpoint() {
	if l.state != DevUp {
		return
	}
	total := l.log.CheckpointFrom(l.chip.SnapshotLMBInto)
	l.count("ckpt.take", 1)
	l.count("ckpt.bytes", int64(total))
}

// fail starts the drain phase of one scheduled fault that keeps the
// device down for downFor; wipe distinguishes a crash from a link-down.
// It reports false for a void fault, one scheduled while the device is
// not up (overlapping windows).
func (l *devLifecycle) fail(downFor sim.Cycles, wipe bool) bool {
	if l.state != DevUp {
		return false
	}
	kind := "devlinkdown"
	if wipe {
		kind = "devcrash"
	}
	l.hooks.injected(kind)
	l.state = DevDraining
	if wipe {
		// Cores freeze at their next memory operation; a link-down
		// leaves them computing on intact local memory.
		l.gate.Close()
	}
	l.k.After(l.drain, func() { l.down(downFor, wipe) })
	return true
}

// down completes the fault: the epoch advances and, for a crash, the
// crash-point image is captured from the checkpoint log before the wipe
// destroys the live one.
func (l *devLifecycle) down(downFor sim.Cycles, wipe bool) {
	l.state = DevDown
	l.epoch++
	l.count("epoch.advance", 1)
	if wipe {
		l.img, l.imgWrites, l.imgBytes = l.log.Restore()
		l.chip.WipeLMB()
	}
	if l.hooks.down != nil {
		l.hooks.down()
	}
	l.k.After(downFor, func() { l.rejoin(wipe) })
}

// rejoin restores the crash-point image, rebases the journal on it, and
// brings the device back up.
func (l *devLifecycle) rejoin(wipe bool) {
	l.state = DevRejoining
	if wipe {
		l.chip.LoadLMB(l.img)
		l.count("replay.writes", int64(l.imgWrites))
		l.count("replay.bytes", int64(l.imgBytes))
		l.img = nil
		// Rebase the journal on the restored image so a second crash
		// replays from here, not from the pre-crash snapshot.
		l.log.CheckpointFrom(l.chip.SnapshotLMBInto)
	}
	l.state = DevUp
	if l.hooks.replay != nil {
		l.hooks.replay()
	}
	if wipe {
		l.gate.Open()
	}
	l.hooks.recovered()
	if l.hooks.up != nil {
		l.hooks.up()
	}
}

// memberDev is the classic engine's record of one device: its lifecycle
// plus the cross-device waiters a single kernel can offer.
type memberDev struct {
	*devLifecycle
	// up wakes peers blocked in AwaitUp on every return to DevUp.
	up *sim.Cond
	// replaying is set from the moment the device leaves DevUp until its
	// rejoin's journal replay has finished, so AfterReplay hooks
	// registered anywhere in that window fire only once the restored
	// memory is quiescent.
	replaying bool
	// afterReplay holds the one-shot hooks to run (in registration
	// order) once the next rejoin's journal replay completes.
	afterReplay []func()
}

// Membership is the device-level membership manager of a vSCC. It is
// only constructed when the fault schedule contains device faults
// (fault.Config.DeviceFaultsArmed); every other configuration runs with
// a nil manager on byte-identical code paths.
type Membership struct {
	k      *sim.Kernel
	fabric *pcie.Fabric
	devs   []*memberDev

	// pending counts scheduled device faults that have not finished
	// their lifecycle. The periodic checkpoint timers stop once it hits
	// zero, so the event queue drains and Kernel.Run can terminate.
	pending int
}

// Statically assert the framing-layer contract.
var _ pcie.DeviceView = (*Membership)(nil)

// newMembership wires one lifecycle per device into the chips, the
// fabric (epoch stamping and journal holds) and the host task
// (reachability gates), and schedules the configured device faults.
func newMembership(k *sim.Kernel, chips []*scc.Chip, fabric *pcie.Fabric, task *host.Task, inj *fault.Injector) *Membership {
	cfg := inj.Config()
	t := newCrashTiming(cfg)
	m := &Membership{k: k, fabric: fabric}
	for d, chip := range chips {
		d := d
		rec := &memberDev{up: sim.NewCond(k, fmt.Sprintf("dev%d.rejoin", d))}
		rec.devLifecycle = newDevLifecycle(k, chip, t, lifecycleHooks{
			injected:  func(kind string) { inj.RecordInjection(kind, "vscc.device", d) },
			recovered: func() { inj.RecordRecovery("rejoin", "vscc.device", d) },
			// From down to rejoin every frame toward or from the device
			// is held in the senders' journals.
			down: func() { task.DeviceDown(d) },
			up: func() {
				task.DeviceUp(d)
				m.pending--
				rec.up.Broadcast()
				m.replayJournals(rec)
			},
			ticking: func() bool { return m.pending != 0 },
		})
		m.devs = append(m.devs, rec)
	}
	fabric.SetMembership(m)
	m.pending = len(cfg.DevCrashAt) + len(cfg.DevLinkDownAt)
	for _, df := range cfg.DevCrashAt {
		df := df
		k.At(df.At, func() { m.fail(df, t.outage(df), true) })
	}
	for _, df := range cfg.DevLinkDownAt {
		df := df
		k.At(df.At, func() { m.fail(df, t.outage(df), false) })
	}
	return m
}

// Instrument attaches the observability sink (nil-safe, like the
// injector's).
func (m *Membership) Instrument(s *trace.Sink) {
	if m == nil {
		return
	}
	for _, rec := range m.devs {
		rec.sink = s
	}
}

// Usable implements pcie.DeviceView: frames may use the wire while the
// device is up or draining.
func (m *Membership) Usable(dev int) bool {
	s := m.devs[dev].state
	return s == DevUp || s == DevDraining
}

// Epoch implements pcie.DeviceView.
func (m *Membership) Epoch(dev int) uint8 { return m.devs[dev].epoch }

// Lost reports whether the device is currently unreachable — the
// condition the protocol recovery ladders distinguish from an ordinary
// lost flag write.
func (m *Membership) Lost(dev int) bool { return m.devs[dev].lost() }

// State returns the device's membership state (test hook).
func (m *Membership) State(dev int) DevState { return m.devs[dev].state }

// Quiesced reports whether the device is up with no rejoin replay in
// flight — the condition under which its memory belongs entirely to the
// current epoch and a supervisor may reclaim its cores.
func (m *Membership) Quiesced(dev int) bool {
	rec := m.devs[dev]
	return rec.state == DevUp && !rec.replaying
}

// AwaitUp parks p until the device is back up. Used by the transparent
// retry path (fault spec devretry=1).
func (m *Membership) AwaitUp(p *sim.Proc, dev int) {
	rec := m.devs[dev]
	for rec.state != DevUp {
		rec.up.Wait(p)
	}
}

// AfterReplay registers a one-shot hook that runs once the device is
// back up AND its rejoin journal replay has finished — the first point
// at which the device's memory is quiescent, so a supervisor may tear
// down and reuse the device's cores without replayed pre-crash frames
// landing on top (the scheduler's devretry requeue path). A hook
// registered while the device is up with no replay in flight runs as a
// kernel event at the current cycle. Hooks run in registration order,
// in kernel context.
func (m *Membership) AfterReplay(dev int, fn func()) {
	rec := m.devs[dev]
	if rec.state == DevUp && !rec.replaying {
		m.k.At(m.k.Now(), fn)
		return
	}
	rec.afterReplay = append(rec.afterReplay, fn)
}

// fail starts one scheduled device fault. A fault on an out-of-range
// device, or one landing while the device is not up, retires unused.
func (m *Membership) fail(df fault.DeviceFault, downFor sim.Cycles, wipe bool) {
	if df.Dev < 0 || df.Dev >= len(m.devs) || !m.devs[df.Dev].fail(downFor, wipe) {
		m.pending--
		return
	}
	m.devs[df.Dev].replaying = true // until the rejoin replay completes
}

// replayJournals runs once a device is back up: the fabric replays its held
// PCIe journals in the new epoch, then the AfterReplay hooks fire.
func (m *Membership) replayJournals(rec *memberDev) {
	m.k.Spawn(fmt.Sprintf("replay.d%d", rec.dev), func(p *sim.Proc) {
		frames, bytes := m.fabric.ReplayDevice(p, rec.dev)
		rec.count("replay.frames", int64(frames))
		rec.count("replay.frame_bytes", int64(bytes))
		rec.replaying = false
		hooks := rec.afterReplay
		rec.afterReplay = nil
		for _, fn := range hooks {
			fn()
		}
	})
}
