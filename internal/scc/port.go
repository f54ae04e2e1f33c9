package scc

import "vscc/internal/sim"

// OffChipPort is the device's window to the rest of a vSCC system: MPB
// lines on other devices and host memory-mapped registers. All methods
// run in the calling core's process context and block according to the
// configured acknowledgement mode (see package pcie); they are the data
// transfer layer the paper's communication task sits behind.
//
// Buffer ownership: every data and buf slice belongs to the caller. The
// calling core passes its per-process line scratch and reuses it as soon
// as the method returns, so an implementation that keeps bytes beyond
// the call (a queued delivery, a closure run later) must copy them, and
// must finish filling buf before it returns.
type OffChipPort interface {
	// ReadLine fetches one 32-byte-aligned MPB line of a foreign device
	// into buf (len 32), blocking until the response arrives.
	ReadLine(p *sim.Proc, srcDev, srcCore, dev, tile, off int, buf []byte)

	// WriteLine delivers a possibly partial MPB line (mask bit i = byte i
	// valid) to a foreign device, blocking until the write is
	// acknowledged under the active acknowledgement mode.
	WriteLine(p *sim.Proc, srcDev, srcCore, dev, tile, off int, data []byte, mask uint32)

	// MMIOWriteLine delivers a fused register-file write to the host
	// communication task. hostDev selects the logical register bank
	// (one per device).
	MMIOWriteLine(p *sim.Proc, srcDev, srcCore, hostDev, off int, data []byte, mask uint32)

	// MMIORead reads host registers, blocking for the round trip.
	MMIORead(p *sim.Proc, srcDev, srcCore, hostDev, off int, buf []byte)
}
