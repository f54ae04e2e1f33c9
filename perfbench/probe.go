package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"

	"vscc/internal/host"
	"vscc/internal/noc"
	"vscc/internal/pcie"
	"vscc/internal/rcce"
	"vscc/internal/scc"
	"vscc/internal/sim"
)

// Probes time one public entry point of a layer in isolation: host ns
// per call, and simulated cycles per call where the call advances a
// kernel. Each probe runs probeRounds times and reports the median.
const probeRounds = 5

// probeResult is one probe's per-call cost.
type probeResult struct {
	ns     float64 // host nanoseconds per call
	cycles float64 // simulated cycles per call (0 for untimed calls)
}

// timeCore calls body n times from core 0 of chip and returns host ns
// and simulated cycles per call.
func timeCore(chip *scc.Chip, n int, body func(*scc.Ctx)) (probeResult, error) {
	var start, end sim.Cycles
	chip.Launch(0, "probe", func(c *scc.Ctx) {
		start = c.Now()
		for i := 0; i < n; i++ {
			body(c)
		}
		end = c.Now()
	})
	t0 := time.Now()
	if err := chip.Kernel.Run(); err != nil {
		return probeResult{}, err
	}
	return probeResult{
		ns:     float64(time.Since(t0).Nanoseconds()) / float64(n),
		cycles: float64(end-start) / float64(n),
	}, nil
}

// mpbProbeBytes is one RCCE chunk's worth of MPB traffic, the unit the
// protocols move per flag handshake.
const mpbProbeBytes = 1024

// probeMPB times scc.Ctx.WriteMPB or ReadMPB of one chunk from core 0
// into tile 1's MPB on a single chip.
func probeMPB(write bool, n int) (probeResult, error) {
	chip := scc.NewChip(sim.NewKernel(), 0, scc.DefaultParams())
	buf := make([]byte, mpbProbeBytes)
	return timeCore(chip, n, func(ctx *scc.Ctx) {
		if write {
			ctx.WriteMPB(0, 1, 0, buf)
			ctx.FlushWCB()
			return
		}
		ctx.InvalidateMPB()
		ctx.ReadMPB(0, 1, 0, buf)
	})
}

// probeWriteLine times one 32-byte store from a core of device 0 into
// device 1's MPB: the WCB drain through the host task's WriteLine and
// PCIe forwarding.
func probeWriteLine(n int) (probeResult, error) {
	k := sim.NewKernel()
	chips := []*scc.Chip{scc.NewChip(k, 0, scc.DefaultParams()), scc.NewChip(k, 1, scc.DefaultParams())}
	fabric, err := pcie.New(2, pcie.DefaultParams(), pcie.AckHost)
	if err != nil {
		return probeResult{}, err
	}
	if _, err := host.New(k, fabric, chips, host.DefaultParams()); err != nil {
		return probeResult{}, err
	}
	line := make([]byte, 32)
	off := 0
	return timeCore(chips[0], n, func(ctx *scc.Ctx) {
		ctx.WriteMPB(1, 0, off, line)
		ctx.FlushWCB()
		off = (off + 32) % 4096
	})
}

// probeSendRecv times an RCCE on-chip round trip of a 32-byte message
// between adjacent cores, reported per Send+Recv pair.
func probeSendRecv(n int) (probeResult, error) {
	k := sim.NewKernel()
	chip := scc.NewChip(k, 0, scc.DefaultParams())
	s, err := rcce.NewSession(k, []*scc.Chip{chip}, []rcce.Place{{Dev: 0, Core: 0}, {Dev: 0, Core: 1}})
	if err != nil {
		return probeResult{}, err
	}
	var start, end sim.Cycles
	t0 := time.Now()
	err = s.Run(func(r *rcce.Rank) {
		msg, buf := make([]byte, 32), make([]byte, 32)
		peer := 1 - r.ID()
		start = r.Now()
		for i := 0; i < n; i++ {
			if r.ID() == 0 {
				r.Send(peer, msg)
				r.Recv(peer, buf)
			} else {
				r.Recv(peer, buf)
				r.Send(peer, msg)
			}
		}
		if r.ID() == 0 {
			end = r.Now()
		}
	})
	if err != nil {
		return probeResult{}, err
	}
	pairs := float64(2 * n)
	return probeResult{ns: float64(time.Since(t0).Nanoseconds()) / pairs, cycles: float64(end-start) / pairs}, nil
}

// probeLoop times n calls of a pure function.
func probeLoop(n int, fn func(i int)) probeResult {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return probeResult{ns: float64(time.Since(t0).Nanoseconds()) / float64(n)}
}

// probeSink keeps pure probe results observable so the calls are not
// optimised away.
var probeSink int

func probeRoute(n int) probeResult {
	m := noc.New(scc.MeshWidth, scc.MeshHeight, noc.DefaultParams())
	a, b := noc.Coord{X: 0, Y: 0}, noc.Coord{X: scc.MeshWidth - 1, Y: scc.MeshHeight - 1}
	return probeLoop(n, func(int) { probeSink += len(m.Route(a, b)) })
}

func probeHeaderCodec(n int) (probeResult, error) {
	var err error
	r := probeLoop(n, func(i int) {
		frame := pcie.EncodeHeader(pcie.Header{Seq: uint64(i), Length: 32, Kind: 1})
		h, derr := pcie.DecodeHeader(frame[:])
		if derr != nil {
			err = derr
		}
		probeSink += int(h.Length)
	})
	return r, err
}

// layerProbes runs every layer probe and returns its per-layer metrics.
func layerProbes(quick bool) (map[string]float64, error) {
	n := func(full int) int {
		if quick {
			return full / 20
		}
		return full
	}
	type probe struct {
		ns, cyc string
		run     func() (probeResult, error)
	}
	probes := []probe{
		{"scc.mpb_write_ns", "scc.mpb_write_cyc", func() (probeResult, error) { return probeMPB(true, n(2000)) }},
		{"scc.mpb_read_ns", "", func() (probeResult, error) { return probeMPB(false, n(2000)) }},
		{"host.writeline_ns", "", func() (probeResult, error) { return probeWriteLine(n(4000)) }},
		{"rcce.sendrecv_ns", "rcce.sendrecv_cyc", func() (probeResult, error) { return probeSendRecv(n(4000)) }},
		{"noc.route_ns", "", func() (probeResult, error) { return probeRoute(n(200000)), nil }},
		{"pcie.header_codec_ns", "", func() (probeResult, error) { return probeHeaderCodec(n(400000)) }},
	}
	out := map[string]float64{}
	for _, p := range probes {
		var ns, cyc []float64
		for r := 0; r < probeRounds; r++ {
			res, err := p.run()
			if err != nil {
				return nil, fmt.Errorf("probe %s: %w", p.ns, err)
			}
			ns = append(ns, res.ns)
			cyc = append(cyc, res.cycles)
		}
		out[p.ns] = median(ns)
		if p.cyc != "" {
			out[p.cyc] = median(cyc)
		}
	}
	return out, nil
}

// goBench runs benchmarks of a compiled test binary from its package
// directory and returns every sample's ns/op by benchmark name, with
// the -GOMAXPROCS suffix removed.
func goBench(bin, dir, pattern, benchtime string, count int) (map[string][]float64, error) {
	cmd := exec.Command(bin, "-test.run", "^$", "-test.bench", pattern,
		"-test.benchtime", benchtime, "-test.count", strconv.Itoa(count), "-test.timeout", "150s")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("%s -test.bench %s: %w\n%s", filepath.Base(bin), pattern, err, out)
	}
	res := map[string][]float64{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") || f[3] != "ns/op" {
			continue
		}
		ns, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			continue
		}
		name := procSuffix.ReplaceAllString(f[0], "")
		res[name] = append(res[name], ns)
	}
	return res, nil
}

var procSuffix = regexp.MustCompile(`-\d+$`)

// simBenchmarks reads the kernel's cost per process switch and the
// decomposed engine's scaling from the repository's existing
// internal/sim and root benchmarks. bins holds their test binaries
// (sim.test, vscc.test); workers is the parallel worker count compared
// against one worker.
func simBenchmarks(root, bins string, workers int, quick bool) (map[string]float64, error) {
	count := 5
	pp, pd := "200000x", "2000000x"
	if quick {
		count, pp, pd = 1, "2000x", "20000x"
	}
	simBin, rootBin := filepath.Join(bins, "sim.test"), filepath.Join(bins, "vscc.test")
	simDir := filepath.Join(root, "internal", "sim")
	out := map[string]float64{}
	for _, c := range []struct{ metric, sub, benchtime string }{
		{"sim.cond_pingpong_ns", "cond-pingpong", pp},
		{"sim.process_delay_ns", "process-delay", pd},
	} {
		r, err := goBench(simBin, simDir, "^BenchmarkKernelEventThroughput$/^"+c.sub+"$", c.benchtime, count)
		if err != nil {
			return nil, err
		}
		out[c.metric] = median(r["BenchmarkKernelEventThroughput/"+c.sub])
	}
	wn := fmt.Sprintf("workers-%d", workers)
	speedup := func(bin, dir, bench, benchtime string) (float64, error) {
		r, err := goBench(bin, dir, "^"+bench+"$/^(workers-1|"+wn+")$", benchtime, count)
		if err != nil {
			return 0, err
		}
		one, par := median(r[bench+"/workers-1"]), median(r[bench+"/"+wn])
		if one == 0 || par == 0 {
			return 0, fmt.Errorf("%s: no workers-1/%s samples", bench, wn)
		}
		return one / par, nil
	}
	var err error
	if out["sim.pdes_speedup"], err = speedup(rootBin, root, "BenchmarkPDESBT", "1x"); err != nil {
		return nil, err
	}
	tp := "20000x"
	if quick {
		tp = "200x"
	}
	if out["sim.pdes_events_speedup"], err = speedup(simBin, simDir, "BenchmarkPDESThroughput", tp); err != nil {
		return nil, err
	}
	return out, nil
}
