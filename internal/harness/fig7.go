package harness

import (
	"fmt"

	"vscc/internal/npb"
	"vscc/internal/rcce"
	"vscc/internal/sim"
	"vscc/internal/vscc"
)

// BTPoint is one Fig. 7 measurement.
type BTPoint struct {
	Ranks  int
	GFlops float64
	Cycles sim.Cycles
}

// BTSweepConfig controls a Fig. 7 sweep.
type BTSweepConfig struct {
	Class npb.Class
	// Iterations per run (steady state); the class default (200) is
	// impractical inside the simulator, so runs use a few iterations —
	// per-iteration time is steady, so GFLOP/s is unaffected.
	Iterations int
	// Scheme is the inter-device configuration (the paper contrasts the
	// optimal vDMA scheme with the worst-case transparent routing).
	Scheme vscc.Scheme
	// Devices sizes the vSCC (5 for the 240-core flagship).
	Devices int
}

// BTSweep runs NPB BT for each square rank count and returns the
// scalability curve. Rank counts above one device's 48 cores exercise
// the inter-device path. Each count is an independent simulation on its
// own vSCC, so the sweep fans out across the worker pool (see
// SetParallelism) with results in input order.
func BTSweep(cfg BTSweepConfig, counts []int) ([]BTPoint, error) {
	return mapPoints(counts, func(ranks int) (BTPoint, error) {
		return BTRun(cfg, ranks)
	})
}

// LUSweep is BTSweep for the NPB LU extension workload.
func LUSweep(cfg BTSweepConfig, counts []int) ([]BTPoint, error) {
	return mapPoints(counts, func(ranks int) (BTPoint, error) {
		return LURun(cfg, ranks)
	})
}

// npbApp is one NPB workload: its name in labels and errors, and how
// it decomposes and runs on a session.
type npbApp struct {
	name string
	run  func(session *rcce.Session, cfg BTSweepConfig, ranks int) (npb.Result, error)
}

var (
	appBT = npbApp{"bt", func(session *rcce.Session, cfg BTSweepConfig, ranks int) (npb.Result, error) {
		d, err := npb.NewDecomp(cfg.Class.N, ranks)
		if err != nil {
			return npb.Result{}, err
		}
		return npb.RunOn(session, d, npb.Config{Class: cfg.Class, Iterations: cfg.Iterations, Timing: true})
	}}
	// LU is the latency-bound wavefront contrast to BT's communication.
	appLU = npbApp{"lu", func(session *rcce.Session, cfg BTSweepConfig, ranks int) (npb.Result, error) {
		d, err := npb.NewLUDecomp(cfg.Class.N, ranks)
		if err != nil {
			return npb.Result{}, err
		}
		return npb.RunLU(session, d, npb.Config{Class: cfg.Class, Iterations: cfg.Iterations, Timing: true})
	}}
)

// BTRun executes one BT configuration on a fresh vSCC.
func BTRun(cfg BTSweepConfig, ranks int) (BTPoint, error) { return npbRun(appBT, cfg, ranks) }

// LURun executes the NPB LU extension workload on a fresh vSCC.
func LURun(cfg BTSweepConfig, ranks int) (BTPoint, error) { return npbRun(appLU, cfg, ranks) }

// npbRun executes one configuration of app on a fresh vSCC, on the
// engine SetPDES selects.
func npbRun(app npbApp, cfg BTSweepConfig, ranks int) (BTPoint, error) {
	if cfg.Devices == 0 {
		cfg.Devices = (ranks + 47) / 48
		if cfg.Devices < 1 {
			cfg.Devices = 1
		}
	}
	if cfg.Iterations == 0 {
		cfg.Iterations = 2
	}
	if w := PDESWorkers(); w > 0 {
		return pdesPoint(app, cfg, ranks, w)
	}
	k := sim.NewKernel()
	defer k.Release()
	sys, err := vscc.NewSystem(k, sysConfig(vscc.Config{Devices: cfg.Devices, Scheme: cfg.Scheme}))
	if err != nil {
		return BTPoint{}, err
	}
	sink := observe(fmt.Sprintf("fig7/%s/%s/ranks=%03d", app.name, cfg.Scheme.Key(), ranks), k)
	sys.Instrument(sink)
	session, err := sys.NewSession(ranks, rcce.WithSink(sink))
	if err != nil {
		return BTPoint{}, err
	}
	res, err := app.run(session, cfg, ranks)
	if err != nil {
		return BTPoint{}, fmt.Errorf("%s ranks=%d: %w", app.name, ranks, err)
	}
	return BTPoint{Ranks: ranks, GFlops: res.GFlops, Cycles: res.Cycles}, nil
}
