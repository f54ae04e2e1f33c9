// Command vsccd is the multi-tenant vSCC scheduler daemon: it admits a
// workload file of many jobs from several tenants onto one simulated
// five-device fabric, enforcing per-tenant QoS (PCIe token-bucket
// bandwidth caps, deficit-round-robin fair queueing in the host
// communication task, host software-cache partitions) and space-sharing
// capacity partitions (cores/MPB, LUT slots).
//
// The run is kernel-clock deterministic: -replicas N executes the whole
// schedule N times (optionally in parallel OS threads with -parallel)
// and byte-compares the full output — result table, per-tenant metrics,
// Chrome trace — across replicas before printing it. With a -fault
// schedule the same determinism holds, and -assert-isolation verifies
// the fault domain: jobs that never touch the crashed device must
// complete, failures must match rcce.ErrDeviceLost on that device, and
// a devretry tenant's job counts as lost-then-recovered when its
// requeue record names the device.
//
// Usage:
//
//	vsccd -workload workloads/mixed50.jobs
//	vsccd -workload w.jobs -replicas 3 -parallel 3 -trace out.trace
//	vsccd -workload w.jobs -fault "seed=7,devcrash=400000:4:20000000,budget=50000,waitretries=3" -assert-isolation 4
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"

	"vscc/internal/fault"
	"vscc/internal/harness"
	"vscc/internal/sched"
	"vscc/internal/sim"
	"vscc/internal/stats"
	"vscc/internal/trace"
	"vscc/internal/vscc"
)

func main() {
	log.SetFlags(0)
	workload := flag.String("workload", "", "workload file (required; see internal/sched.ParseWorkload)")
	devices := flag.Int("devices", 5, "coupled SCC devices")
	schemeKey := flag.String("fabric", "vdma", "fabric base scheme (fixes the PCIe ack mode jobs must share)")
	faultSpec := flag.String("fault", "", "deterministic fault schedule (see internal/fault)")
	replicas := flag.Int("replicas", 2, "independent reruns to byte-compare (>=1)")
	parallel := flag.Int("parallel", 0, "replicas run concurrently (0 = GOMAXPROCS, 1 = serial)")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON file")
	metrics := flag.Bool("metrics", false, "append the full metrics report")
	quantum := flag.Int("quantum", 0, "DRR quantum bytes (0 = host default)")
	cacheLines := flag.Int("cachelines", 0, "host software-cache pool partitioned among tenants (0 = default)")
	lutSlots := flag.Int("lutslots", 0, "LUT slots per device for inter-device jobs (0 = default, <0 none)")
	assertIsolation := flag.Int("assert-isolation", -1, "verify fault isolation for this crashed device (-1 off)")
	flag.Parse()
	if *workload == "" {
		fail(fmt.Errorf("missing -workload"))
	}
	f, err := os.Open(*workload)
	check(err)
	w, err := sched.ParseWorkload(f)
	f.Close()
	check(err)
	fcfg, err := fault.ParseSpec(*faultSpec)
	check(err)
	if *replicas < 1 {
		*replicas = 1
	}
	harness.SetParallelism(*parallel)

	run := runConfig{
		w:         w,
		devices:   *devices,
		fcfg:      fcfg,
		metrics:   *metrics,
		withTrace: *traceOut != "",
		opts: sched.Options{
			DRRQuantum:        *quantum,
			CacheLines:        *cacheLines,
			LUTSlotsPerDevice: *lutSlots,
		},
	}
	var ok bool
	if run.scheme, ok = vscc.SchemeByKey(*schemeKey); !ok {
		fail(fmt.Errorf("unknown fabric scheme %q", *schemeKey))
	}

	outs := make([]*replicaOutput, *replicas)
	check(harness.ForEachPoint(*replicas, func(i int) error {
		out, err := run.execute()
		if err != nil {
			return fmt.Errorf("replica %d: %w", i, err)
		}
		outs[i] = out
		return nil
	}))
	for i := 1; i < len(outs); i++ {
		if !bytes.Equal(outs[0].all(), outs[i].all()) {
			fail(fmt.Errorf("determinism violated: replica %d output differs from replica 0 (%d vs %d bytes)",
				i, len(outs[i].all()), len(outs[0].all())))
		}
	}
	canon := outs[0]
	os.Stdout.Write(canon.report.Bytes())
	fmt.Printf("identity: %d replica(s) byte-identical\n", len(outs))
	if *metrics {
		os.Stdout.Write(canon.metrics.Bytes())
	}
	if *traceOut != "" {
		check(os.WriteFile(*traceOut, canon.chrome.Bytes(), 0o644))
	}
	if *assertIsolation >= 0 {
		check(checkIsolation(canon.results, *assertIsolation))
		fmt.Printf("isolation: device %d fault domain contained\n", *assertIsolation)
	}
}

type runConfig struct {
	w         *sched.Workload
	devices   int
	scheme    vscc.Scheme
	fcfg      *fault.Config
	opts      sched.Options
	metrics   bool
	withTrace bool
}

type replicaOutput struct {
	report  bytes.Buffer
	metrics bytes.Buffer
	chrome  bytes.Buffer
	results []sched.Result
}

// all concatenates every byte the replica produced, for the identity
// comparison (the report embeds the result table and tenant metrics;
// chrome embeds every span and counter sample).
func (o *replicaOutput) all() []byte {
	return append(append(append([]byte(nil), o.report.Bytes()...), o.metrics.Bytes()...), o.chrome.Bytes()...)
}

// execute runs the whole schedule once on a fresh kernel and fabric.
func (rc *runConfig) execute() (*replicaOutput, error) {
	k := sim.NewKernel()
	cfg := vscc.Config{Devices: rc.devices, Scheme: rc.scheme}
	if rc.fcfg != nil {
		fc := *rc.fcfg
		cfg.Faults = &fc
	}
	sys, err := vscc.NewSystem(k, cfg)
	if err != nil {
		return nil, err
	}
	var col trace.Collector
	sink := col.New("vsccd", k)
	sys.Instrument(sink)
	s := sched.New(sys, sink, rc.opts)
	for _, ts := range rc.w.Tenants {
		if err := s.AddTenant(ts); err != nil {
			return nil, err
		}
	}
	if err := s.Submit(rc.w.Jobs); err != nil {
		return nil, err
	}
	engineErr := k.Run()
	// Every output below is rendered before the parked processes unwind.
	defer k.Release()
	if engineErr != nil && !s.AllTerminal() {
		return nil, fmt.Errorf("engine failed with jobs outstanding: %w", engineErr)
	}
	out := &replicaOutput{results: s.Results()}
	rc.render(out, s, sink, k, engineErr != nil)
	if rc.metrics {
		fmt.Fprint(&out.metrics, sink.MetricsReport())
	}
	if rc.withTrace {
		if err := trace.WriteChrome(&out.chrome, col.Captures()); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// render prints the deterministic run report: workload header, job
// results in arrival order, the per-tenant QoS/metric table, and the
// summary counts.
func (rc *runConfig) render(out *replicaOutput, s *sched.Scheduler, sink *trace.Sink, k *sim.Kernel, stranded bool) {
	w := &out.report
	fmt.Fprintf(w, "== vsccd: %d jobs, %d tenants, %d devices, fabric %s ==\n",
		len(rc.w.Jobs), len(rc.w.Tenants), rc.devices, rc.scheme.Key())
	rows := [][]string{{"job", "tenant", "kind", "ranks", "scheme", "devs", "submit", "admit", "done", "status", "retries"}}
	counts := map[sched.Status]int{}
	requeued := 0
	for _, r := range out.results {
		counts[r.Status]++
		requeued += r.Retries
		rows = append(rows, []string{
			r.Spec.Name,
			fmt.Sprint(r.Spec.Tenant),
			string(r.Spec.Kind),
			fmt.Sprint(r.Spec.Ranks),
			r.Spec.Scheme.Key(),
			devList(r),
			cyc(r.Submit),
			cyc(r.Admit),
			cyc(r.Done),
			r.Status.String(),
			fmt.Sprint(r.Retries),
		})
	}
	fmt.Fprint(w, stats.Table(rows))
	trows := [][]string{{"tenant", "jobs done", "requeued", "pcie bytes", "bw-throttled [cyc]", "cache evicts"}}
	for _, id := range s.Tenants() {
		tag := trace.TenantTag(id)
		trows = append(trows, []string{
			tag,
			fmt.Sprint(sink.CounterValue("sched.done." + tag)),
			fmt.Sprint(sink.CounterValue("sched.requeued." + tag)),
			fmt.Sprint(sink.CounterValue("qos.bytes." + tag)),
			fmt.Sprint(sink.CounterValue("qos.bw_wait." + tag)),
			fmt.Sprint(sink.CounterValue("host.cache_evict." + tag)),
		})
	}
	fmt.Fprint(w, stats.Table(trows))
	fmt.Fprintf(w, "summary: jobs=%d ok=%d rejected=%d device-lost=%d failed=%d requeued=%d end_cycle=%d\n",
		len(out.results), counts[sched.StatusOK], counts[sched.StatusRejected],
		counts[sched.StatusDeviceLost], counts[sched.StatusFailed], requeued, k.Now())
	if stranded {
		fmt.Fprintln(w, "engine: stranded ranks parked after device loss (expected)")
	} else {
		fmt.Fprintln(w, "engine: ok")
	}
}

func cyc(c sim.Cycles) string {
	if c == sched.NoCycle {
		return "-"
	}
	return fmt.Sprint(c)
}

func devList(r sched.Result) string {
	devs := r.Devices()
	if len(devs) == 0 {
		return "-"
	}
	s := ""
	for i, d := range devs {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprint(d)
	}
	return s
}

// checkIsolation verifies the fault domain of a crashed device: every
// failure must involve the device and match rcce.ErrDeviceLost (via its
// status), at least one job must have been lost to — or recovered from —
// it, and every job that never touched the device must have completed
// (or been rejected for capacity, which is independent of the fault).
// A devretry job that finished ok after a requeue counts against the
// device its LostDevs record names, not its final placement: recovery
// relocates the job, but the fault domain it survived does not move.
func checkIsolation(results []sched.Result, dev int) error {
	lost, recovered := 0, 0
	for _, r := range results {
		touches := false
		for _, d := range r.Devices() {
			if d == dev {
				touches = true
			}
		}
		lostTo := false
		for _, d := range r.LostDevs {
			if d == dev {
				lostTo = true
			}
		}
		switch r.Status {
		case sched.StatusDeviceLost:
			if !touches && !lostTo {
				return fmt.Errorf("isolation violated: job %q lost to the device fault without touching device %d", r.Spec.Name, dev)
			}
			lost++
		case sched.StatusFailed:
			return fmt.Errorf("isolation violated: job %q failed with a non-device error: %v", r.Spec.Name, r.Err)
		case sched.StatusOK:
			if lostTo {
				recovered++
			} else if r.Retries > 0 {
				return fmt.Errorf("isolation violated: job %q was requeued by devices %v, not device %d", r.Spec.Name, r.LostDevs, dev)
			}
		case sched.StatusRejected:
		default:
			return fmt.Errorf("job %q finished in non-terminal state %v", r.Spec.Name, r.Status)
		}
	}
	if lost+recovered == 0 {
		return fmt.Errorf("isolation assertion vacuous: no job was lost to or recovered from device %d", dev)
	}
	return nil
}

func check(err error) {
	if err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "vsccd:", err)
	os.Exit(1)
}
