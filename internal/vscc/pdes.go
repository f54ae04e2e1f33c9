package vscc

// Conservative PDES decomposition of a vSCC (DESIGN.md §9): one
// sim.Kernel per SCC device plus one kernel for the host/PCIe side,
// coupled by sim.PDES barrier windows with lookahead equal to the PCIe
// link latency. Each device's mesh, MPB state, L1/WCB models and rcce
// ranks stay kernel-local; the only cross-kernel traffic is the PCIe
// fabric boundary: explicit request/response messages over
// per-direction link models (pdesLink). That protocol is all this file
// holds — the device ports, held-delivery replay and the host kernel's
// message handlers. Config validation, session and LUT setup, the
// per-scheme ack policy and the device crash lifecycle (devLifecycle)
// are shared with the classic engine.
//
// The classic single-kernel engine (System) couples devices through
// shared structures with zero-latency effects — host.Task delivery
// invalidates the host caches and every device's SIF buffers at the
// same instant, and scc.Checker is a cross-device oracle — so the PDES
// engine cannot be cycle-identical to it. The determinism bar is
// instead self-identity: a PDES run with W workers is byte-identical
// (traces, ledgers, checkpoints) to the same PDES run with 1 worker,
// for any W. That is the property the identity gates enforce.
//
// Fault support is deliberately narrow: device-crash faults
// (DevCrashAt) with checkpoints and held-delivery replay, entirely
// device-kernel-local. Packet-level faults, host stalls/crashes and
// link-down faults need the framed single-kernel fabric and are
// rejected up front.

import (
	"errors"

	"vscc/internal/fault"
	"vscc/internal/host"
	"vscc/internal/mem"
	"vscc/internal/pcie"
	"vscc/internal/rcce"
	"vscc/internal/scc"
	"vscc/internal/sim"
	"vscc/internal/trace"
)

// Request/acknowledgement sizes on the wire (one line for a read
// request, a header-sized ack).
const (
	pdesReqBytes = mem.LineSize
	pdesAckBytes = 4
)

// pdesLink models one direction of a device's PCIe link: a serial
// resource with fixed latency and finite bandwidth, owned by exactly
// one kernel (device-to-host by the device, host-to-device by the
// host), so reservations never cross kernels and stay deterministic.
type pdesLink struct {
	free sim.Cycles // cycle the link becomes idle
	bpc  float64    // bytes per cycle
	lat  sim.Cycles // propagation latency
}

// reserve books n bytes at or after now; done is when the last byte
// leaves (the sender may proceed), arrive when it lands on the far
// side. Successive reservations arrive in reservation order — the FIFO
// property every data-before-flag argument below rests on.
func (l *pdesLink) reserve(now sim.Cycles, n int) (done, arrive sim.Cycles) {
	start := now
	if l.free > start {
		start = l.free
	}
	occ := sim.Cycles(float64(n) / l.bpc)
	if occ < 1 {
		occ = 1
	}
	done = start + occ
	l.free = done
	return done, done + l.lat
}

// PDESSystem is the domain-decomposed counterpart of System: the same
// Config, chips and schemes, driven by sim.PDES instead of one kernel.
type PDESSystem struct {
	PDES   *sim.PDES
	Config Config
	Chips  []*scc.Chip

	workers int
	params  pcie.Params
	eng     *pdesHost
	ports   []*pdesPort
	// sinks holds one observability sink per kernel (devices 0..N-1,
	// host at N); nil entries disable recording for that kernel.
	sinks []*trace.Sink
}

// pdesUnsupportedFaults rejects fault classes that require the framed
// single-kernel fabric.
func pdesUnsupportedFaults(f *fault.Config) error {
	if f == nil {
		return nil
	}
	if f.DropPer10k != 0 || f.DupPer10k != 0 || f.DelayPer10k != 0 || f.CorruptPer10k != 0 ||
		f.FlagLossPer10k != 0 || f.CacheCorruptPer10k != 0 || f.MMIOCorruptPer10k != 0 {
		return errors.New("vscc: pdes supports only device-crash faults; packet/flag/cache/mmio faults need the framed single-kernel fabric")
	}
	if len(f.StallAt) != 0 || len(f.CrashAt) != 0 {
		return errors.New("vscc: pdes supports only device-crash faults; host stall/crash faults need the single-kernel host task")
	}
	if len(f.DevLinkDownAt) != 0 {
		return errors.New("vscc: pdes supports only device-crash faults; link-down faults need the framed fabric's journals")
	}
	return nil
}

// NewPDESSystem assembles a domain-decomposed vSCC driven by `workers`
// goroutines (1 = the serial identity reference).
func NewPDESSystem(cfg Config, workers int) (*PDESSystem, error) {
	chipParams, fabricParams, _, err := cfg.params()
	if err != nil {
		return nil, err
	}
	if cfg.Check {
		return nil, errors.New("vscc: the consistency checker is a cross-device oracle and cannot run under pdes")
	}
	if err := pdesUnsupportedFaults(cfg.Faults); err != nil {
		return nil, err
	}
	if fabricParams.LinkLatency < 1 {
		return nil, errors.New("vscc: pdes needs a positive PCIe link latency (the lookahead)")
	}

	s := &PDESSystem{
		Config:  cfg,
		workers: workers,
		params:  fabricParams,
		// Kernel i simulates device i; kernel Devices the host/PCIe side.
		PDES:  sim.NewPDES(cfg.Devices+1, fabricParams.LinkLatency),
		sinks: make([]*trace.Sink, cfg.Devices+1),
	}
	s.eng = &pdesHost{
		sys:   s,
		k:     s.PDES.Kernel(cfg.Devices),
		idx:   cfg.Devices,
		h2d:   make([]pdesLink, cfg.Devices),
		banks: make([]*host.Banks, cfg.Devices),
		cache: make(map[pdesCacheKey]*pdesHostCopy),
	}
	for d := 0; d < cfg.Devices; d++ {
		s.eng.h2d[d] = pdesLink{bpc: fabricParams.LinkBytesPerCycle, lat: fabricParams.LinkLatency}
		s.eng.banks[d] = host.NewBanks()
		chip := cfg.newChip(s.PDES.Kernel(d), d, chipParams)
		pt := &pdesPort{
			sys:    s,
			dev:    d,
			chip:   chip,
			d2h:    pdesLink{bpc: fabricParams.LinkBytesPerCycle, lat: fabricParams.LinkLatency},
			stream: make(map[pdesStreamKey]*pdesStream),
		}
		chip.OffChip = pt
		s.Chips = append(s.Chips, chip)
		s.ports = append(s.ports, pt)
	}
	if cfg.Faults != nil && len(cfg.Faults.DevCrashAt) > 0 {
		s.armDeviceFaults(*cfg.Faults)
	}
	return s, nil
}

// Instrument attaches one sink per kernel: sinks[d] for device d,
// sinks[Devices] for the host kernel. Nil entries (or a nil slice)
// disable. Per-kernel sinks are mandatory under PDES because
// trace.Sink is not concurrency-safe.
func (s *PDESSystem) Instrument(sinks []*trace.Sink) {
	for i := range s.sinks {
		if sinks != nil && i < len(sinks) {
			s.sinks[i] = sinks[i]
		}
	}
	for _, pt := range s.ports {
		if pt.life != nil {
			pt.life.sink = s.sinks[pt.dev]
		}
	}
}

// hostIdx returns the host kernel's index.
func (s *PDESSystem) hostIdx() int { return s.Config.Devices }

// Run drives the decomposed simulation to completion.
func (s *PDESSystem) Run() error { return s.PDES.Run(s.workers) }

// NewSession mirrors System.NewSession for the decomposed engine.
func (s *PDESSystem) NewSession(n int, opts ...rcce.Option) (*rcce.Session, error) {
	places, err := rcce.LinearPlaces(s.Chips, n)
	if err != nil {
		return nil, err
	}
	return s.NewSessionAt(places, opts...)
}

// NewSessionAt is NewSession with explicit placements. The protocol
// runs with the fault machinery disarmed (waits are purely
// event-driven; device crashes recover by held-delivery replay, so
// every awaited flag eventually lands), per-device sinks route every
// rank's observability to its own kernel, and the session runner is
// the PDES barrier-window engine.
func (s *PDESSystem) NewSessionAt(places []rcce.Place, opts ...rcce.Option) (*rcce.Session, error) {
	proto, err := s.Config.protocol(s.Config.Scheme, len(places))
	if err != nil {
		return nil, err
	}
	opts = append([]rcce.Option{
		rcce.WithProtocol(proto),
		rcce.WithDeviceSinks(s.sinks[:s.Config.Devices]),
		rcce.WithSink(s.sinks[s.hostIdx()]),
		rcce.WithRunner(s.Run),
	}, opts...)
	session, err := rcce.NewSession(s.PDES.Kernel(s.hostIdx()), s.Chips, places, opts...)
	if err != nil {
		return nil, err
	}
	// The host region table has no PDES counterpart: routing decisions
	// live in the port's write policy.
	if err := mapRemoteLUTs(s.Chips, places); err != nil {
		return nil, err
	}
	return session, nil
}

// --- device-side port ----------------------------------------------------

// pdesStreamKey identifies the published MPB range of one core's MPB
// half in a receiver's stream buffer. The half index (off divided by
// the per-core LMB size) matters: two cores share a tile, and keying
// by tile alone would let one core's publication clobber the
// bookkeeping of its tile-mate's, leaving a peer's stale stream alive
// across an invalidation.
type pdesStreamKey struct{ dev, tile, half int }

// pdesStream is a receiver-side copy of a published sender MPB range,
// installed by a bulk host-cache response (the SIF prefetch streaming
// of Fig. 4b).
type pdesStream struct {
	off  int
	data []byte
}

// pdesHeld is one delivery held while its device is down, replayed in
// arrival order at rejoin.
type pdesHeld struct {
	fn    func()
	bytes int
}

// pdesPort implements scc.OffChipPort for one device kernel. All its
// state is owned by that kernel; the only cross-kernel effects are
// PDES.Post calls toward the host kernel.
type pdesPort struct {
	sys  *PDESSystem
	dev  int
	chip *scc.Chip
	d2h  pdesLink

	// stream holds host-pushed copies of published sender ranges;
	// invalidations arrive on the same FIFO host-to-device link as any
	// subsequent flag write, so a stale hit is impossible while the
	// protocol's grant/ready handshake holds.
	stream map[pdesStreamKey]*pdesStream

	// life is the device's crash lifecycle, nil unless a DevCrashAt
	// schedule is armed; held queues host deliveries while it is down.
	life *devLifecycle
	held []pdesHeld
}

func (pt *pdesPort) k() *sim.Kernel { return pt.sys.PDES.Kernel(pt.dev) }

// post sends fn to the host kernel, arriving at cycle at.
func (pt *pdesPort) post(at sim.Cycles, fn func()) {
	pt.sys.PDES.Post(pt.dev, at, pt.sys.hostIdx(), fn)
}

// reply sends fn to the host kernel behind n bytes on the
// device-to-host link, leaving now.
func (pt *pdesPort) reply(n int, fn func()) {
	_, arrive := pt.d2h.reserve(pt.k().Now(), n)
	pt.post(arrive, fn)
}

// writePolicy derives one store's acknowledgement from the scheme, as
// the classic host task does: payload stores into a write-combining or
// posted region are posted (fire and forget, WCB absorbed); every other
// store is acknowledged per the scheme's fabric ack mode.
func (pt *pdesPort) writePolicy(off int) (ack pcie.AckMode, posted bool) {
	scheme := pt.sys.Config.Scheme
	if m := scheme.regionMode(); (m == host.ModeWriteCombining || m == host.ModePosted) && off%mem.CoreLMBSize < rcce.PayloadBytes {
		return 0, true
	}
	return scheme.ackMode(), false
}

// WriteLine implements scc.OffChipPort.
func (pt *pdesPort) WriteLine(p *sim.Proc, srcDev, srcCore, dev, tile, off int, data []byte, mask uint32) {
	// Copy the masked line out of the caller's line scratch: that buffer
	// is reused the moment this method returns (see scc.OffChipPort), but
	// the bytes cross a kernel boundary and land a window later.
	var buf [mem.LineSize]byte
	copy(buf[:], data)
	now := p.Now()
	done, arrive := pt.d2h.reserve(now, mem.LineSize)
	//lint:ignore simapi proof: reserve returns done = max(now, free) + occupancy >= now
	p.Delay(done - now) // the store occupies the SIF queue
	eng := pt.sys.eng
	switch ack, posted := pt.writePolicy(off); {
	case posted:
		pt.post(arrive, func() { eng.write(srcDev, dev, tile, off, buf, mask, nil, nil) })
	case ack == pcie.AckFPGA:
		// FPGA fast-ack: only the local SIF stalls.
		pt.post(arrive, func() { eng.write(srcDev, dev, tile, off, buf, mask, nil, nil) })
		p.Delay(pt.sys.params.SIFAckCycles)
	default:
		// Block for the host's receipt, or under transparent routing for
		// the remote apply (4 hops).
		var hostWake, remoteWake func()
		if ack == pcie.AckRemote {
			remoteWake = func() { p.Unpark() }
		} else {
			hostWake = func() { p.Unpark() }
		}
		pt.post(arrive, func() { eng.write(srcDev, dev, tile, off, buf, mask, hostWake, remoteWake) })
		p.Park("pcie write ack")
	}
}

// ReadLine implements scc.OffChipPort.
func (pt *pdesPort) ReadLine(p *sim.Proc, srcDev, srcCore, dev, tile, off int, buf []byte) {
	// Stream-buffer hit: the host cache already pushed this published
	// range here; the read is a local SIF access.
	if s := pt.stream[pdesStreamKey{dev, tile, off / mem.CoreLMBSize}]; s != nil && off >= s.off && off+len(buf) <= s.off+len(s.data) {
		p.Delay(pt.sys.params.SIFAckCycles)
		copy(buf, s.data[off-s.off:])
		return
	}
	now := p.Now()
	_, arrive := pt.d2h.reserve(now, pdesReqBytes)
	eng := pt.sys.eng
	var resp []byte
	wake := func(data []byte) { resp = data; p.Unpark() }
	pt.post(arrive, func() { eng.read(srcDev, dev, tile, off, len(buf), wake) })
	p.Park("pcie read")
	copy(buf, resp)
}

// MMIOWriteLine implements scc.OffChipPort: fused register writes are
// posted (the WCB already absorbed them on-core).
func (pt *pdesPort) MMIOWriteLine(p *sim.Proc, srcDev, srcCore, hostDev, off int, data []byte, mask uint32) {
	var buf [mem.LineSize]byte
	copy(buf[:], data)
	now := p.Now()
	done, arrive := pt.d2h.reserve(now, mem.LineSize)
	//lint:ignore simapi proof: reserve returns done = max(now, free) + occupancy >= now
	p.Delay(done - now)
	eng := pt.sys.eng
	pt.post(arrive, func() { eng.mmioWrite(hostDev, off, buf, mask) })
}

// MMIORead implements scc.OffChipPort: a blocking register read.
func (pt *pdesPort) MMIORead(p *sim.Proc, srcDev, srcCore, hostDev, off int, buf []byte) {
	now := p.Now()
	_, arrive := pt.d2h.reserve(now, pdesReqBytes)
	eng := pt.sys.eng
	var resp []byte
	wake := func(data []byte) { resp = data; p.Unpark() }
	pt.post(arrive, func() { eng.mmioRead(srcDev, hostDev, off, len(buf), wake) })
	p.Park("pcie mmio read")
	copy(buf, resp)
}

// deliver applies (or holds, while the device is down) one
// LMB-mutating delivery from the host.
func (pt *pdesPort) deliver(bytes int, fn func()) {
	if pt.life.lost() {
		pt.held = append(pt.held, pdesHeld{fn: fn, bytes: bytes})
		return
	}
	fn()
}

// dropStream discards the receiver-side copy of a published range
// (pushed by the host on CmdInvalidate). Never held: a crashed
// device's streams were already lost in the wipe.
func (pt *pdesPort) dropStream(dev, tile, half int) {
	delete(pt.stream, pdesStreamKey{dev, tile, half})
}

// installStream lands a bulk cache response.
func (pt *pdesPort) installStream(dev, tile, off int, data []byte) {
	pt.stream[pdesStreamKey{dev, tile, off / mem.CoreLMBSize}] = &pdesStream{off: off, data: data}
}

// armDeviceFaults gives every device a crash lifecycle on its own
// kernel and schedules the crashes. The periodic checkpoint chains stop
// at a statically computed horizon (end of the last scheduled outage).
func (s *PDESSystem) armDeviceFaults(cfg fault.Config) {
	t := newCrashTiming(cfg)
	var horizon sim.Cycles
	for _, df := range cfg.DevCrashAt {
		if end := df.At + t.drain + t.outage(df); end > horizon {
			horizon = end
		}
	}
	for _, pt := range s.ports {
		pt := pt
		pt.life = newDevLifecycle(pt.k(), pt.chip, t, lifecycleHooks{
			// The injector's ledger names, emitted directly: the pdes fault
			// path has no Injector instance, but the vscctrace recovery
			// table keys on these counters.
			injected:  func(kind string) { pt.life.count("fault.inject."+kind, 1) },
			recovered: func() { pt.life.count("fault.recover.rejoin", 1) },
			// Device-side copies of published ranges die with the device.
			down:    func() { clear(pt.stream) },
			replay:  pt.replayHeld,
			horizon: horizon,
		})
	}
	for _, df := range cfg.DevCrashAt {
		if df.Dev < 0 || df.Dev >= len(s.ports) {
			continue
		}
		life, down := s.ports[df.Dev].life, t.outage(df)
		life.k.At(df.At, func() { life.fail(down, true) })
	}
}

// replayHeld applies the deliveries held while the device was down, in
// arrival order.
func (pt *pdesPort) replayHeld() {
	held := pt.held
	pt.held = nil
	bytes := 0
	for _, h := range held {
		h.fn()
		bytes += h.bytes
	}
	pt.life.count("replay.frames", int64(len(held)))
	pt.life.count("replay.frame_bytes", int64(bytes))
}

// --- host/PCIe kernel ----------------------------------------------------

// pdesCacheKey identifies one core's published MPB half in the host
// software cache (same half-granularity rationale as pdesStreamKey).
type pdesCacheKey struct{ dev, tile, half int }

// pdesHostCopy is the host cache's copy of one published range.
type pdesHostCopy struct {
	off, n  int
	data    []byte
	valid   bool
	readers []bool // devices holding a pushed stream of this copy
}

// pdesHost is the host/PCIe kernel's engine: the serialization point
// every classic host.Task service ran through, re-expressed as message
// handlers. All state is owned by the host kernel.
type pdesHost struct {
	sys   *PDESSystem
	k     *sim.Kernel
	idx   int
	busy  sim.Cycles
	h2d   []pdesLink
	banks []*host.Banks
	cache map[pdesCacheKey]*pdesHostCopy
}

func (e *pdesHost) sink() *trace.Sink { return e.sys.sinks[e.idx] }

// send posts fn to device dev's kernel over its host-to-device link,
// n bytes leaving once the host is free at from.
func (e *pdesHost) send(from sim.Cycles, dev, n int, fn func()) {
	_, arrive := e.h2d[dev].reserve(from, n)
	e.sys.PDES.Post(e.idx, arrive, dev, fn)
}

// fetch reads n bytes at (tile, off) of device dev's MPB for the host:
// the request leaves once the host is free at from, the read waits out
// a device outage, and then runs on the host kernel with the data and
// the completion time of the host operation that receives it.
func (e *pdesHost) fetch(from sim.Cycles, dev, tile, off, n int, then func(data []byte, done sim.Cycles)) {
	pt := e.sys.ports[dev]
	e.send(from, dev, pdesReqBytes, func() {
		pt.deliver(n, func() {
			data := make([]byte, n)
			pt.chip.HostReadLMB(tile, off, data)
			pt.reply(n, func() { then(data, e.op()) })
		})
	})
}

// op serializes one host operation: it starts when the host is free
// and costs HostOpCycles; the return value is its completion time,
// from which any outbound link reservation starts.
func (e *pdesHost) op() sim.Cycles {
	start := e.k.Now()
	if e.busy > start {
		start = e.busy
	}
	e.busy = start + e.sys.params.HostOpCycles
	e.sink().Add("pdes.host.ops", 1)
	return e.busy
}

// write handles one device store: apply it at the destination device
// and wake the writer on the host's receipt (hostWake) or once the line
// is applied remotely (remoteWake); both are nil for an unacknowledged
// store.
func (e *pdesHost) write(srcDev, dev, tile, off int, data [mem.LineSize]byte, mask uint32, hostWake, remoteWake func()) {
	done := e.op()
	dst := e.sys.ports[dev]
	if hostWake != nil {
		// Host receipt: acknowledged as soon as the host has the line,
		// concurrently with the forward delivery.
		e.send(done, srcDev, pdesAckBytes, hostWake)
	}
	e.send(done, dev, mem.LineSize, func() {
		dst.deliver(int(mem.LineSize), func() {
			// The valid runs land through the chip's host write path
			// (journaled, flag waiters woken).
			mem.MaskedRuns(data[:], mask, func(i int, run []byte) {
				dst.chip.HostWriteLMB(tile, off+i, run)
			})
			if remoteWake != nil {
				// Remote acknowledgement: back across both links.
				dst.reply(pdesAckBytes, func() { e.send(e.op(), srcDev, pdesAckBytes, remoteWake) })
			}
		})
	})
}

// read serves a device's foreign MPB line read.
func (e *pdesHost) read(srcDev, dev, tile, off, n int, wake func([]byte)) {
	done := e.op()
	key := pdesCacheKey{dev, tile, off / mem.CoreLMBSize}
	if c := e.cache[key]; c != nil && c.valid && off >= c.off && off+n <= c.off+c.n {
		// Cache hit: push the whole published range to the reader (the
		// prefetch stream), then serve the line out of it.
		e.sink().Add("pdes.cache.hits", 1)
		c.readers[srcDev] = true
		data := c.data
		cOff := c.off
		rd := e.sys.ports[srcDev]
		e.send(done, srcDev, len(data), func() {
			rd.installStream(dev, tile, cOff, data)
			resp := make([]byte, n)
			copy(resp, data[off-cOff:])
			wake(resp)
		})
		return
	}
	// Transparent forward to the owning device (4 hops).
	e.sink().Add("pdes.cache.forwards", 1)
	e.fetch(done, dev, tile, off, n, func(data []byte, done sim.Cycles) {
		e.send(done, srcDev, n, func() { wake(data) })
	})
}

// mmioWrite lands a fused register write and executes any armed
// command.
func (e *pdesHost) mmioWrite(hostDev, off int, data [mem.LineSize]byte, mask uint32) {
	done := e.op()
	core := off / host.BankBytes
	cmd, trigger := e.banks[hostDev].Write(core, data[:], mask)
	if !trigger {
		return
	}
	cmd.SrcDev, cmd.SrcCore = hostDev, core
	if err := cmd.Validate(len(e.sys.Chips)); err != nil {
		// A corrupt command cannot occur without the fault injector;
		// dropping it deterministically matches the classic validator's
		// reject-and-continue behaviour.
		return
	}
	switch cmd.Cmd {
	case host.CmdUpdate:
		e.update(cmd, done)
	case host.CmdInvalidate:
		e.invalidate(cmd, done)
	case host.CmdCopy:
		e.vdmaCopy(cmd, done)
	}
}

// mmioRead serves a blocking register read.
func (e *pdesHost) mmioRead(srcDev, hostDev, off, n int, wake func([]byte)) {
	done := e.op()
	bank := e.banks[hostDev].Read(off / host.BankBytes)
	resp := make([]byte, n)
	copy(resp, bank[off%host.BankBytes:])
	e.send(done, srcDev, n, func() { wake(resp) })
}

// update executes CmdUpdate: fetch the published range of the
// requester's MPB into the host cache (warming the local-put/
// remote-get path).
func (e *pdesHost) update(cmd host.BankCommand, done sim.Cycles) {
	dev := cmd.SrcDev
	tile := scc.CoreTile(cmd.SrcCore)
	e.fetch(done, dev, tile, cmd.SrcOff, cmd.Count, func(data []byte, _ sim.Cycles) {
		key := pdesCacheKey{dev, tile, cmd.SrcOff / mem.CoreLMBSize}
		c := e.cache[key]
		if c == nil {
			c = &pdesHostCopy{readers: make([]bool, len(e.sys.Chips))}
			e.cache[key] = c
		}
		c.off, c.n, c.data, c.valid = cmd.SrcOff, cmd.Count, data, true
		clear(c.readers)
	})
}

// invalidate executes CmdInvalidate: drop the host copy and push
// stream invalidations to every device holding one. The invalidations
// ride the same FIFO host-to-device links as all subsequent flag
// writes, so no reader can observe a stale stream after a flag that
// permits the next read.
func (e *pdesHost) invalidate(cmd host.BankCommand, done sim.Cycles) {
	dev := cmd.SrcDev
	tile := scc.CoreTile(cmd.SrcCore)
	half := cmd.SrcOff / mem.CoreLMBSize
	c := e.cache[pdesCacheKey{dev, tile, half}]
	if c == nil || !c.valid {
		return
	}
	if cmd.SrcOff >= c.off+c.n || cmd.SrcOff+cmd.Count <= c.off {
		return // disjoint range: the copy stays valid
	}
	c.valid = false
	for rd := 0; rd < len(c.readers); rd++ { // ascending: deterministic
		if !c.readers[rd] {
			continue
		}
		c.readers[rd] = false
		pt := e.sys.ports[rd]
		e.send(done, rd, pdesAckBytes, func() { pt.dropStream(dev, tile, half) })
	}
}

// vdmaCopy executes CmdCopy: the virtual DMA controller reads the
// source slot out of the requester's MPB, writes it (plus the notify
// flag, in the same delivery so data-before-flag holds trivially) to
// the destination, and raises the completion flag at the requester.
func (e *pdesHost) vdmaCopy(cmd host.BankCommand, done sim.Cycles) {
	e.sink().Add("pdes.vdma.copies", 1)
	srcDev := cmd.SrcDev
	srcTile := scc.CoreTile(cmd.SrcCore)
	src, dst := e.sys.ports[srcDev], e.sys.ports[cmd.DstDev]
	setup := done + e.sys.params.DMASetupCycles
	e.fetch(setup, srcDev, srcTile, cmd.SrcOff, cmd.Count, func(data []byte, done sim.Cycles) {
		if cmd.Flags&host.FlagCompletion != 0 {
			e.send(done, srcDev, pdesAckBytes, func() {
				src.deliver(1, func() {
					src.chip.HostWriteLMB(srcTile, cmd.ComplOff, []byte{cmd.ComplVal})
				})
			})
		}
		e.send(done, cmd.DstDev, cmd.Count, func() {
			dst.deliver(cmd.Count, func() {
				dst.chip.HostWriteLMB(cmd.DstTile, cmd.DstOff, data)
				if cmd.Flags&host.FlagNotifyDest != 0 {
					dst.chip.HostWriteLMB(cmd.DstTile, cmd.NotifyOff, []byte{cmd.NotifyVal})
				}
			})
		})
	})
}
