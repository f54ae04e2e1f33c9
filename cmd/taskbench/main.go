// Command taskbench runs the task-dataflow runtime's workloads
// (internal/taskrt) across the communication schemes: blocked Cholesky,
// a Jacobi stencil with halo exchange, and a key-value request/response
// service, each as a sweep of independent replicas. The output — one
// deterministic line per replica, with scheduler totals, per-class
// argument-movement counts, the end cycle and the region-state hash —
// byte-compares across reruns and -parallel settings; the CI
// taskrt-identity job holds that bar, with and without a scheduled
// device crash.
//
// With -graph FILE the workload is a task-spec document instead (see
// the grammar in internal/taskrt/spec.go).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"vscc/internal/harness"
	"vscc/internal/taskrt"
	"vscc/internal/vscc"
)

func main() {
	workload := flag.String("workload", "all", "workload: cholesky, stencil, kv, or all")
	schemes := flag.String("schemes", "all", "comma-separated scheme keys (host-routed, cached-get, remote-put, vdma, ...) or all")
	devices := flag.Int("devices", 2, "SCC devices")
	ranks := flag.Int("ranks", 4, "worker ranks, spread round-robin across devices")
	size := flag.Int("size", 4, "decomposition: Cholesky tile grid, stencil strips, kv shards")
	iters := flag.Int("iters", 8, "stencil sweeps / kv requests")
	replicas := flag.Int("replicas", 1, "independent replicas per (workload, scheme) point")
	graph := flag.String("graph", "", "run a task-spec file instead of a named workload")
	run := harness.BindRunFlags(flag.CommandLine, "replica", "seed=1,devcrash=150000:1:200000,ckpt=50000,devretry=1", true)
	flag.Parse()
	obs, err := run.Apply()
	check(err)

	if *graph != "" {
		check(runGraph(*graph, *ranks))
		check(obs.Finish(os.Stdout))
		return
	}

	workloads := taskrt.Workloads()
	if *workload != "all" {
		workloads = []string{*workload}
	}
	var schemeList []vscc.Scheme
	if *schemes == "all" {
		schemeList = []vscc.Scheme{
			vscc.SchemeHostRouted, vscc.SchemeHWAccel, vscc.SchemeCachedGet,
			vscc.SchemeRemotePut, vscc.SchemeVDMA,
		}
	} else {
		for _, key := range strings.Split(*schemes, ",") {
			s, ok := vscc.SchemeByKey(strings.TrimSpace(key))
			if !ok {
				check(fmt.Errorf("unknown scheme %q", key))
			}
			schemeList = append(schemeList, s)
		}
	}

	for _, wl := range workloads {
		for _, scheme := range schemeList {
			dev := *devices
			if scheme == vscc.SchemeHWAccel && dev > 2 {
				dev = 2 // the FPGA scheme is unstable beyond 2 devices (§2.3)
			}
			pts, err := harness.TaskrtSweep(harness.TaskrtConfig{
				Workload: wl, Scheme: scheme, Devices: dev, Ranks: *ranks,
				Size: *size, Iters: *iters, Replicas: *replicas,
			})
			check(err)
			for _, pt := range pts {
				fmt.Println(pt)
			}
		}
	}
	check(obs.Finish(os.Stdout))
}

// runGraph executes one task-spec file on the serial reference executor
// and prints its region and task counts and final state hash. No
// simulated system runs, so -schemes, -parallel and -fault have no
// effect.
func runGraph(path string, ranks int) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	sp, err := taskrt.ParseSpec(string(src))
	if err != nil {
		return err
	}
	ref := taskrt.New(taskrt.Config{})
	if err := sp.Build(ref, ranks); err != nil {
		return err
	}
	if err := ref.RunSerial(ranks); err != nil {
		return err
	}
	fmt.Printf("graph %s: %d regions, %d tasks, serial hash=%s\n",
		path, ref.NumRegions(), ref.NumTasks(), ref.StateHash())
	return nil
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "taskbench:", err)
		os.Exit(1)
	}
}
