// Package vscc implements the paper's contribution: a system of
// cluster-on-a-chip processors. It couples multiple simulated SCC devices
// through the PCIe fabric and the host communication task into one
// virtual 240-core processor, extends the RCCE rank space linearly across
// devices, and provides the host-accelerated inter-device communication
// schemes of §3.3:
//
//   - SchemeRouting:    transparent packet routing (previous prototype)
//   - SchemeHostRouted: host-acknowledged default protocol (lower bound)
//   - SchemeHWAccel:    remote put with FPGA fast write-acks (upper
//     bound; at most two devices)
//   - SchemeCachedGet:  local put / remote get with the host software
//     cache and prefetch streaming (Fig. 4b)
//   - SchemeRemotePut:  remote put into the host write-combining buffer
//     (Fig. 4c)
//   - SchemeVDMA:       local put / local get through the virtual DMA
//     controller (Fig. 4a/5), pipelined across MPB halves
package vscc

import (
	"fmt"

	"vscc/internal/fault"
	"vscc/internal/host"
	"vscc/internal/mem"
	"vscc/internal/noc"
	"vscc/internal/pcie"
	"vscc/internal/rcce"
	"vscc/internal/scc"
	"vscc/internal/sim"
	"vscc/internal/trace"
)

// Scheme selects the inter-device communication scheme.
type Scheme int

// The available schemes; see the package comment.
const (
	SchemeRouting Scheme = iota
	SchemeHostRouted
	SchemeHWAccel
	SchemeCachedGet
	SchemeRemotePut
	SchemeVDMA
)

// String names the scheme as in the paper's figures.
func (s Scheme) String() string {
	switch s {
	case SchemeRouting:
		return "transparent-routing"
	case SchemeHostRouted:
		return "host-routed (lower bound)"
	case SchemeHWAccel:
		return "hw-accelerated (upper bound)"
	case SchemeCachedGet:
		return "local put/remote get + cache"
	case SchemeRemotePut:
		return "remote put + write combining"
	case SchemeVDMA:
		return "local put/local get + vDMA"
	}
	return "invalid"
}

// Key returns a short stable identifier for file names, metric names and
// sweep labels (the String form carries spaces and slashes).
func (s Scheme) Key() string {
	switch s {
	case SchemeRouting:
		return "routing"
	case SchemeHostRouted:
		return "host-routed"
	case SchemeHWAccel:
		return "hw-accel"
	case SchemeCachedGet:
		return "cached-get"
	case SchemeRemotePut:
		return "remote-put"
	case SchemeVDMA:
		return "vdma"
	}
	return "invalid"
}

// SchemeByKey parses a Key back into a scheme.
func SchemeByKey(key string) (Scheme, bool) {
	for _, s := range []Scheme{
		SchemeRouting, SchemeHostRouted, SchemeHWAccel,
		SchemeCachedGet, SchemeRemotePut, SchemeVDMA,
	} {
		if s.Key() == key {
			return s, true
		}
	}
	return 0, false
}

// ackMode returns the write-acknowledge mode a scheme requires.
func (s Scheme) ackMode() pcie.AckMode {
	switch s {
	case SchemeRouting:
		return pcie.AckRemote
	case SchemeHWAccel:
		return pcie.AckFPGA
	default:
		return pcie.AckHost
	}
}

// regionMode returns how the communication task treats payload regions.
func (s Scheme) regionMode() host.Mode {
	switch s {
	case SchemeCachedGet:
		return host.ModeCached
	case SchemeRemotePut:
		return host.ModeWriteCombining
	case SchemeVDMA:
		// The vDMA engine owns the bulk path; the direct small-message
		// path posts its payload writes through the communication task.
		return host.ModePosted
	default:
		return host.ModeTransparent
	}
}

// DirectThreshold returns the scheme's default small-message cutoff: at
// or below it, a core transfers the payload directly instead of engaging
// the host machinery ("about 32 B to 128 B dependent on the
// communication scheme", §3.3).
func (s Scheme) DirectThreshold() int {
	switch s {
	case SchemeCachedGet:
		return 32
	case SchemeRemotePut:
		return 128
	case SchemeVDMA:
		return 64
	default:
		return 0
	}
}

// Compatible reports whether sessions of both schemes can share one
// fabric: the PCIe acknowledgement mode is a fabric-wide property, so
// only schemes with the same mode may coexist (NewTenantSession
// enforces this at admission).
func (s Scheme) Compatible(other Scheme) bool { return s.ackMode() == other.ackMode() }

// Config describes a vSCC system.
type Config struct {
	// Devices is the number of coupled SCC boards (the paper's flagship
	// system has five: 240 cores).
	Devices int
	// Scheme is the inter-device communication scheme.
	Scheme Scheme
	// DirectThreshold overrides the scheme default when non-zero.
	DirectThreshold int
	// VDMASlotBytes overrides the vDMA double-buffer slot size (ablation
	// knob; 0 = half the MPB payload area). Must not exceed half the
	// payload area.
	VDMASlotBytes int
	// FailedCores lists silently failed cores per device index, as the
	// research system frequently exhibits at startup (§4).
	FailedCores map[int][]int

	// Check enables the runtime MPB consistency checker (scc.Checker): a
	// shared staleness oracle across all devices that panics the reading
	// rank when a protocol serves a stale cached line or reads past
	// unflushed write-combined stores.
	Check bool

	// Faults arms deterministic fault injection across the PCIe, host and
	// protocol layers (see internal/fault). Nil runs fault-free along the
	// exact same code paths.
	Faults *fault.Config

	// HostParams overrides the communication task's calibrated
	// parameters (ablation knob); nil keeps host.DefaultParams.
	HostParams *host.Params
}

// System is a running vSCC: the chips, the fabric, and the communication
// task, ready to host RCCE sessions.
type System struct {
	Kernel *sim.Kernel
	Config Config
	Chips  []*scc.Chip
	Fabric *pcie.Fabric
	Task   *host.Task
	// Injector is the armed fault injector; nil when Config.Faults is nil.
	Injector *fault.Injector
	// Membership is the device-level membership manager; nil unless the
	// fault schedule contains device crash or link-down faults.
	Membership *Membership
}

// params validates cfg and returns its chip, fabric and host
// parameters: the calibrated defaults, with HostParams applied.
func (cfg Config) params() (scc.Params, pcie.Params, host.Params, error) {
	chip, fabric, hst := scc.DefaultParams(), pcie.DefaultParams(), host.DefaultParams()
	if cfg.Devices <= 0 {
		return chip, fabric, hst, fmt.Errorf("vscc: %d devices", cfg.Devices)
	}
	if cfg.Scheme == SchemeHWAccel && cfg.Devices > 2 {
		return chip, fabric, hst, fmt.Errorf("vscc: the hardware-accelerated scheme is unstable beyond 2 devices (§2.3); got %d", cfg.Devices)
	}
	if cfg.HostParams != nil {
		hst = *cfg.HostParams
	}
	return chip, fabric, hst, nil
}

// newChip builds device d with its configured failed cores.
func (cfg Config) newChip(k *sim.Kernel, d int, params scc.Params) *scc.Chip {
	chip := scc.NewChip(k, d, params)
	for _, core := range cfg.FailedCores[d] {
		chip.SetAlive(core, false)
	}
	return chip
}

// NewSystem assembles a vSCC.
func NewSystem(k *sim.Kernel, cfg Config) (*System, error) {
	chipParams, fabricParams, hostParams, err := cfg.params()
	if err != nil {
		return nil, err
	}
	var chips []*scc.Chip
	var checker *scc.Checker
	if cfg.Check {
		checker = scc.NewChecker()
	}
	for d := 0; d < cfg.Devices; d++ {
		chip := cfg.newChip(k, d, chipParams)
		if checker != nil {
			chip.EnableConsistencyCheck(checker)
		}
		chips = append(chips, chip)
	}
	fabric, err := pcie.New(cfg.Devices, fabricParams, cfg.Scheme.ackMode())
	if err != nil {
		return nil, err
	}
	task, err := host.New(k, fabric, chips, hostParams)
	if err != nil {
		return nil, err
	}
	sys := &System{Kernel: k, Config: cfg, Chips: chips, Fabric: fabric, Task: task}
	if cfg.Faults != nil {
		inj := fault.NewInjector(k, *cfg.Faults)
		fabric.SetFaults(k, inj)
		task.SetFaults(inj)
		for d, chip := range chips {
			d := d
			// Remote MPB flag writes (flag-sized host stores) can vanish;
			// the host's write-verify path recovers them.
			chip.SetHostWriteDropper(func(tile, off, n int) bool {
				return n <= 4 && inj.LoseFlagWrite(d)
			})
		}
		sys.Injector = inj
		if cfg.Faults.DeviceFaultsArmed() {
			// Device-level crash recovery: epochs, checkpoints and
			// drain/replay failover (membership.go). Requires the framed
			// fabric, so it only exists alongside the injector.
			sys.Membership = newMembership(k, chips, fabric, task, inj)
		}
	}
	return sys, nil
}

// Instrument attaches an observability sink to the whole system: every
// PCIe link and the communication task record into it. Sessions pick the
// sink up separately through rcce.WithSink. A nil sink disables.
func (s *System) Instrument(sink *trace.Sink) {
	s.Fabric.Instrument(sink)
	s.Task.Instrument(sink)
	s.Injector.Instrument(sink)
	s.Membership.Instrument(sink)
}

// TotalCores returns the number of available cores across all devices.
func (s *System) TotalCores() int {
	n := 0
	for _, c := range s.Chips {
		n += len(c.AliveCores())
	}
	return n
}

// Coord returns a rank placement's (x, y, z) coordinate in the vSCC
// topology (Fig. 3): tile mesh position plus the device number as z.
func Coord(pl rcce.Place) (x, y, z int) {
	c := scc.CoreCoord(pl.Core)
	return c.X, c.Y, pl.Dev
}

// NewSession creates an RCCE session of n ranks mapped linearly across
// the devices (§3: device 0 first, device 1 starting at rank 48, ...),
// registers every rank's payload and flag regions with the communication
// task, and installs the scheme's wire protocol.
func (s *System) NewSession(n int, opts ...rcce.Option) (*rcce.Session, error) {
	places, err := rcce.LinearPlaces(s.Chips, n)
	if err != nil {
		return nil, err
	}
	return s.NewSessionAt(places, opts...)
}

// NewSessionAt is NewSession with explicit placements.
func (s *System) NewSessionAt(places []rcce.Place, opts ...rcce.Option) (*rcce.Session, error) {
	return s.newSessionAt(places, s.Config.Scheme, opts...)
}

// NewTenantSession builds a session running a per-tenant scheme on the
// shared fabric. The fabric's write-acknowledge mode is a global
// hardware property, so only schemes of the system's ack family are
// admissible: a host-ack fabric (the multi-tenant default) can host
// host-routed, cached-get, remote-put and vDMA tenants side by side,
// but not transparent routing or the FPGA fast-ack scheme.
func (s *System) NewTenantSession(places []rcce.Place, scheme Scheme, opts ...rcce.Option) (*rcce.Session, error) {
	if scheme.ackMode() != s.Fabric.Ack {
		return nil, fmt.Errorf("vscc: scheme %s needs ack mode %s, fabric runs %s",
			scheme.Key(), scheme.ackMode(), s.Fabric.Ack)
	}
	return s.newSessionAt(places, scheme, opts...)
}

func (s *System) newSessionAt(places []rcce.Place, scheme Scheme, opts ...rcce.Option) (*rcce.Session, error) {
	proto, err := s.Config.protocol(scheme, len(places))
	if err != nil {
		return nil, err
	}
	proto.faults = s.Injector
	proto.rec = s.Injector.Recovery()
	proto.mem = s.Membership
	opts = append([]rcce.Option{rcce.WithProtocol(proto)}, opts...)
	session, err := rcce.NewSession(s.Kernel, s.Chips, places, opts...)
	if err != nil {
		return nil, err
	}
	if err := mapRemoteLUTs(s.Chips, places); err != nil {
		return nil, err
	}
	if err := s.registerRegions(places, scheme.regionMode()); err != nil {
		return nil, err
	}
	return session, nil
}

// protocol builds the inter-device wire protocol of a session of n
// ranks running scheme.
func (cfg Config) protocol(scheme Scheme, n int) (*interDeviceProtocol, error) {
	threshold := cfg.DirectThreshold
	if threshold == 0 {
		threshold = scheme.DirectThreshold()
	}
	if cfg.VDMASlotBytes > rcce.PayloadBytes/2 {
		return nil, fmt.Errorf("vscc: vDMA slot %d exceeds half the payload area (%d)", cfg.VDMASlotBytes, rcce.PayloadBytes/2)
	}
	return &interDeviceProtocol{
		base:      rcce.DefaultProtocol{},
		scheme:    scheme,
		threshold: threshold,
		slot:      cfg.VDMASlotBytes,
		seqs:      make([]pairSeq, n*n),
		nRanks:    n,
		published: make([]int, n),
	}, nil
}

// mapRemoteLUTs installs the boot-time LUT mappings of every other
// device's on-chip memory at each placement's core — the paper's §2.1
// hardware-abstraction-layer extension.
func mapRemoteLUTs(chips []*scc.Chip, places []rcce.Place) error {
	for _, pl := range places {
		lut := chips[pl.Dev].Cores[pl.Core].LUT
		for d := range chips {
			if d == pl.Dev {
				continue
			}
			if err := lut.MapRemoteDevice(d); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReleaseRegions tears down the host-task registration of a session's
// placements — the payload and flag regions of every rank — so a later
// tenant can reuse the cores with a different scheme. LUT mappings are
// left installed (they are idempotent and identical for every tenant).
func (s *System) ReleaseRegions(places []rcce.Place) {
	for _, pl := range places {
		tile := scc.CoreTile(pl.Core)
		base := scc.CoreLMBOffset(pl.Core)
		s.Task.UnregisterAt(pl.Dev, tile, base)
		s.Task.UnregisterAt(pl.Dev, tile, base+rcce.PayloadBytes)
	}
}

// registerRegions performs the boot-time registration of every rank's
// communication buffer and flag area with the communication task.
func (s *System) registerRegions(places []rcce.Place, mode host.Mode) error {
	for _, pl := range places {
		tile := scc.CoreTile(pl.Core)
		base := scc.CoreLMBOffset(pl.Core)
		data := &host.Region{
			Dev: pl.Dev, Tile: tile, Off: base, Len: rcce.PayloadBytes,
			Kind: host.KindData, Mode: mode, Owner: pl.Core,
		}
		flags := &host.Region{
			Dev: pl.Dev, Tile: tile, Off: base + rcce.PayloadBytes,
			Len:  mem.CoreLMBSize - rcce.PayloadBytes,
			Kind: host.KindFlag, Mode: host.ModeTransparent, Owner: pl.Core,
		}
		if err := s.Task.Register(data); err != nil {
			return err
		}
		if err := s.Task.Register(flags); err != nil {
			return err
		}
	}
	return nil
}

// MeshOf returns the on-chip mesh of a device, for latency inspection
// tools.
func (s *System) MeshOf(dev int) *noc.Mesh { return s.Chips[dev].Mesh }
