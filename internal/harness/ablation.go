package harness

import (
	"fmt"

	"vscc/internal/host"
	"vscc/internal/npb"
	"vscc/internal/rcce"
	"vscc/internal/sim"
	"vscc/internal/vscc"
)

// This file holds the ablation studies for the design choices DESIGN.md
// calls out: the SIF prefetch streaming behind the software cache, the
// write-combining flush granularity, the vDMA burst size and
// double-buffer slot size, and the small-message direct-transfer
// threshold.

// interDevicePingPongWith measures cross-device ping-pong under an
// arbitrary system configuration.
func interDevicePingPongWith(cfg vscc.Config, sizes []int, reps int) ([]PingPongPoint, error) {
	return PingPongSweep(func(size int) func() (*rcce.Session, error) {
		return func() (*rcce.Session, error) {
			k := sim.NewKernel()
			c := cfg
			c.Devices = 2
			sys, err := vscc.NewSystem(k, sysConfig(c))
			if err != nil {
				return nil, err
			}
			sink := observe(ablateLabel(c, size), k)
			sys.Instrument(sink)
			return sys.NewSession(96, rcce.WithSink(sink))
		}
	}, 0, 48, sizes, reps)
}

// ablateLabel names one ablation point for the trace collector. Grid
// points share a scheme and size but differ in their tuning knobs, so
// the label spells out every non-default knob to keep capture names
// unique (the collector sorts its captures by name; duplicates would
// make the merged export depend on worker completion order).
func ablateLabel(c vscc.Config, size int) string {
	l := "ablate/" + c.Scheme.Key()
	if c.DirectThreshold != 0 {
		l += fmt.Sprintf("/thr=%06d", c.DirectThreshold)
	}
	if c.VDMASlotBytes != 0 {
		l += fmt.Sprintf("/slot=%06d", c.VDMASlotBytes)
	}
	if hp := c.HostParams; hp != nil {
		l += fmt.Sprintf("/sif=%04d/wcb=%06d/burst=%06d", hp.SIFBufferLines, hp.WCBFlushBytes, hp.DMABurstBytes)
	}
	return l + fmt.Sprintf("/size=%07d", size)
}

// AblationSweep measures one throughput number per parameter value, each
// on an independently configured system, fanning the grid out across the
// worker pool. The result map is keyed by parameter value; because every
// point is an isolated simulation the map contents are identical to a
// serial sweep's.
func AblationSweep(values []int, run func(v int) (float64, error)) (map[int]float64, error) {
	mbps, err := mapPoints(values, run)
	if err != nil {
		return nil, err
	}
	out := make(map[int]float64, len(values))
	for i, v := range values {
		out[v] = mbps[i]
	}
	return out, nil
}

// AblateSIFStreaming measures the cached local-put/remote-get scheme
// with and without the SIF prefetch stream — isolating how much of the
// scheme's throughput comes from turning latency-bound line reads into
// a bandwidth-bound stream.
func AblateSIFStreaming(size, reps int) (withStream, withoutStream float64, err error) {
	on, err := interDevicePingPongWith(vscc.Config{Scheme: vscc.SchemeCachedGet}, []int{size}, reps)
	if err != nil {
		return 0, 0, err
	}
	params := host.DefaultParams()
	params.SIFBufferLines = 0 // disable streaming
	off, err := interDevicePingPongWith(vscc.Config{Scheme: vscc.SchemeCachedGet, HostParams: &params}, []int{size}, reps)
	if err != nil {
		return 0, 0, err
	}
	return on[0].MBps, off[0].MBps, nil
}

// AblateWCBFlush measures the remote-put scheme across write-combining
// flush thresholds.
func AblateWCBFlush(size, reps int, flushBytes []int) (map[int]float64, error) {
	return AblationSweep(flushBytes, func(fb int) (float64, error) {
		params := host.DefaultParams()
		params.WCBFlushBytes = fb
		pts, err := interDevicePingPongWith(vscc.Config{Scheme: vscc.SchemeRemotePut, HostParams: &params}, []int{size}, reps)
		if err != nil {
			return 0, err
		}
		return pts[0].MBps, nil
	})
}

// AblateDMABurst measures the vDMA scheme across host DMA burst sizes.
func AblateDMABurst(size, reps int, bursts []int) (map[int]float64, error) {
	return AblationSweep(bursts, func(burst int) (float64, error) {
		params := host.DefaultParams()
		params.DMABurstBytes = burst
		pts, err := interDevicePingPongWith(vscc.Config{Scheme: vscc.SchemeVDMA, HostParams: &params}, []int{size}, reps)
		if err != nil {
			return 0, err
		}
		return pts[0].MBps, nil
	})
}

// AblateVDMASlot measures the vDMA scheme with double-buffered halves
// (default) against a range of slot sizes — small slots pay per-chunk
// overheads, the full half maximizes pipelining; this is the design
// choice that removes the 8 kB slope (§4.1).
func AblateVDMASlot(size, reps int, slots []int) (map[int]float64, error) {
	return AblationSweep(slots, func(slot int) (float64, error) {
		pts, err := interDevicePingPongWith(vscc.Config{Scheme: vscc.SchemeVDMA, VDMASlotBytes: slot}, []int{size}, reps)
		if err != nil {
			return 0, err
		}
		return pts[0].MBps, nil
	})
}

// AblateDirectThreshold measures small-message one-way latency (in
// cycles) with and without the direct-transfer path (§3.3's 32-128 B
// threshold).
func AblateDirectThreshold(scheme vscc.Scheme, size, reps int) (direct, engaged sim.Cycles, err error) {
	// Threshold above the size: direct path.
	on, err := interDevicePingPongWith(vscc.Config{Scheme: scheme, DirectThreshold: size}, []int{size}, reps)
	if err != nil {
		return 0, 0, err
	}
	// Threshold below the size: the host machinery engages.
	off, err := interDevicePingPongWith(vscc.Config{Scheme: scheme, DirectThreshold: -1}, []int{size}, reps)
	if err != nil {
		return 0, 0, err
	}
	perMsg := func(p PingPongPoint) sim.Cycles { return p.Cycles / sim.Cycles(2*p.Reps) }
	return perMsg(on[0]), perMsg(off[0]), nil
}

// AblateBTScheme compares BT on a cross-device session under every
// scheme — the application-level consequence of the scheme choice. Its
// points run with the harness observer detached: one 100-rank class C
// run alone fills gigabytes of trace events.
func AblateBTScheme(ranks, iters int, schemes []vscc.Scheme) (map[vscc.Scheme]float64, error) {
	defer SetObserver(SetObserver(nil))
	gflops, err := mapPoints(schemes, func(s vscc.Scheme) (float64, error) {
		pt, err := BTRun(BTSweepConfig{Class: npb.ClassC, Iterations: iters, Scheme: s, Devices: 5}, ranks)
		if err != nil {
			return 0, err
		}
		return pt.GFlops, nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[vscc.Scheme]float64, len(schemes))
	for i, s := range schemes {
		out[s] = gflops[i]
	}
	return out, nil
}
