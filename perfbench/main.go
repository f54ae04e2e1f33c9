// Command perfbench is the repository's benchmark. It runs one named
// workload of the simulator — the Fig. 6 claims sweep, NPB BT, the
// mixed50 multi-tenant schedule or a chaos campaign — for a fixed
// number of host seconds, one simulation at a time, checks the
// simulated outputs, and prints its metrics as the last line of
// standard output:
//
//	perfbench --workload fig6 --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics with tracing off; --trace 1
// reports the per-layer metrics from a CPU profile, one traced
// repetition and the layer probes. Run it through run.sh, which builds
// the binaries it needs. README.md explains the workloads and metrics.
//
// Every repetition runs in a child process of its own. A simulation
// that ends with processes still parked (every host-task daemon, every
// rank stranded by a device crash) leaves their goroutines blocked for
// the life of the process, holding the simulation's memory, so
// repetitions sharing one process would each carry the leftovers of
// all earlier ones.
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"vscc/internal/harness"
)

// setupRounds is how many rounds of set-up a run times; setup_s is the
// median round. Each round repeats the set-up for at least
// setupRoundSeconds and reports the mean, so a set-up of well under a
// millisecond still reads steadily.
const (
	setupRounds       = 7
	setupRoundSeconds = 0.1
)

// childEnv names the task a child process runs; its flags are the
// parent's.
const childEnv = "PERFBENCH_CHILD"

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	root     string // repository checkout
	bins     string // directory holding sim.test and vscc.test
	out      string // directory for the full digests
	scale    scale
	args     []string // the command line, passed on to child processes
}

func parseOptions(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var traceFlag int
	var small bool
	fs.StringVar(&o.workload, "workload", "", "workload: fig6, bt, mixed50 or chaos")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed (the chaos campaign seed)")
	fs.Float64Var(&o.seconds, "seconds", 10, "host seconds of timed repetitions")
	fs.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics, 1: per-layer metrics")
	fs.StringVar(&o.root, "root", ".", "repository checkout")
	fs.StringVar(&o.bins, "bins", ".bench_build/bin", "directory of the sim.test and vscc.test binaries")
	fs.StringVar(&o.out, "out", ".bench_build/digest", "directory for the full simulated digests")
	fs.BoolVar(&small, "small", false, "run every workload at its smallest size")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if traceFlag != 0 && traceFlag != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	if _, ok := workloadByName(o.workload); !ok {
		return o, fmt.Errorf("unknown workload %q", o.workload)
	}
	for _, p := range []*string{&o.root, &o.bins, &o.out} {
		abs, err := filepath.Abs(*p)
		if err != nil {
			return o, err
		}
		*p = abs
	}
	o.trace = traceFlag == 1
	o.scale = fullScale
	if small {
		o.scale = smallScale
	}
	o.args = args
	return o, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	start := time.Now()
	o, err := parseOptions(os.Args[1:])
	if err != nil {
		fail(err)
	}
	if task := os.Getenv(childEnv); task != "" {
		if err := childMain(o, task, os.Stdout); err != nil {
			fail(err)
		}
		return
	}
	res, err := run(o, start, os.Stdout)
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Printf("%s\n", line)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// run executes one benchmark run and returns its result line; progress
// and the digests go to log.
func run(o options, start time.Time, log io.Writer) (*result, error) {
	w, _ := workloadByName(o.workload)
	fmt.Fprintf(log, "host: %s\n", hostDescription(o.root))
	fmt.Fprintf(log, "run: workload=%s seed=%d seconds=%g trace=%v scale=%+v\n", w.name, o.seed, o.seconds, o.trace, o.scale)

	// The parent only sets up and waits; one thread keeps the set-up
	// rounds as steady as the repetitions.
	runtime.GOMAXPROCS(1)
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		runtime.GC()
		t0 := time.Now()
		for n := 1; ; n++ {
			if _, err := w.setup(o.root, o.scale, o.seed); err != nil {
				return nil, fmt.Errorf("%s setup: %w", w.name, err)
			}
			if el := time.Since(t0).Seconds(); el >= setupRoundSeconds {
				setups = append(setups, el/float64(n))
				break
			}
		}
	}
	fmt.Fprintf(log, "setup: first_sim_s=%.3f\n", time.Since(start).Seconds())

	tr, err := timedReps(o)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "%s: reps=%d wall_s=%.4f [%.4f..%.4f] setup_s=%.6f sim_cycles_per_s=%.4g peak_mem_mb=%.1f peak_rss_mb=%.1f fail_frac=%g",
		w.name, len(tr.walls), median(tr.walls), minOf(tr.walls), maxOf(tr.walls), median(setups),
		median(tr.rates), median(tr.memMB), median(tr.rssMB), float64(tr.failed)/float64(tr.attempted))
	if w.name == "fig6" {
		fmt.Fprintf(log, " paper_err=%.4f", tr.first.PaperErr)
	}
	fmt.Fprintln(log)
	for _, e := range tr.errs {
		fmt.Fprintf(log, "FAIL: %s\n", e)
	}
	fmt.Fprintf(log, "digest %s: sha256=%s cycles=%d events=%d sims=%d\n",
		w.name, shortHash(tr.first.Digest), tr.first.Cycles, tr.first.Events, tr.first.Sims)
	if err := writeDigest(o.out, w.name+".sim.txt", tr.first.Digest); err != nil {
		return nil, err
	}

	res := &result{Attempted: tr.attempted, Failed: tr.failed, Metrics: map[string]metric{}}
	if !o.trace {
		res.Metrics["wall_s"] = metric{median(tr.walls), "s"}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["sim_cycles_per_s"] = metric{median(tr.rates), "1/s"}
		res.Metrics["peak_mem_mb"] = metric{median(tr.memMB), "MB"}
	} else {
		layer, err := layerRun(w, o, tr, log)
		if err != nil {
			return nil, err
		}
		res.Failed += layer.failed
		res.Attempted += layer.attempted
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{layer.values[m.name], m.unit}
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// timed is what the timed repetitions of a run measured.
type timed struct {
	walls, rates, memMB, rssMB, allocMB []float64
	attempted, failed                   int
	errs                                []string
	first                               *childResult // the first repetition
	profiles                            [][]byte     // CPU profiles, traced runs only
	layer                               []map[string]float64
}

// timedReps repeats the workload untraced, each repetition in a child
// process, until o.seconds have passed (at least once). A repetition
// fails on an error, a failed output check, or a simulated digest that
// differs from the first one's (for workloads whose inputs repeat).
// Traced runs profile every repetition.
func timedReps(o options) (*timed, error) {
	tr := &timed{}
	task := "rep"
	if o.trace {
		task = "rep-profiled"
	}
	w, _ := workloadByName(o.workload)
	begin := time.Now()
	for len(tr.walls) == 0 || time.Since(begin).Seconds() < o.seconds {
		r, rss, err := spawnChild(o, fmt.Sprintf("%s/%d", task, len(tr.walls)))
		if err != nil {
			return nil, err
		}
		tr.attempted++
		if tr.first == nil {
			tr.first = r
		}
		switch {
		case r.Err != "":
			tr.failed++
			tr.errs = append(tr.errs, r.Err)
		case r.Digest != tr.first.Digest && !w.seedPerRep:
			tr.failed++
			tr.errs = append(tr.errs, fmt.Sprintf("repetition %d: simulated digest differs from the first repetition's", len(tr.walls)))
		}
		tr.walls = append(tr.walls, r.Wall)
		tr.rates = append(tr.rates, float64(r.Cycles)/r.Wall)
		tr.rssMB = append(tr.rssMB, rss)
		tr.memMB = append(tr.memMB, r.MemMB)
		tr.allocMB = append(tr.allocMB, r.AllocMB)
		tr.layer = append(tr.layer, r.Values)
		if r.Profile != nil {
			tr.profiles = append(tr.profiles, r.Profile)
		}
	}
	return tr, nil
}

// childResult is what a child process reports on its last line.
type childResult struct {
	Wall     float64            `json:"wall"`
	MemMB    float64            `json:"mem_mb"`
	Cycles   uint64             `json:"cycles"`
	Events   uint64             `json:"events"`
	Sims     int                `json:"sims"`
	Digest   string             `json:"digest"`
	Err      string             `json:"err"`
	PaperErr float64            `json:"paper_err"`
	AllocMB  float64            `json:"alloc_mb"`
	Values   map[string]float64 `json:"values"`
	Errs     []string           `json:"errs"`
	Text     string             `json:"text"`
	Profile  []byte             `json:"profile"`
}

// spawnChild runs one task in a child process, waits for it, and
// returns its result and the child's peak resident memory in MB.
func spawnChild(o options, task string) (*childResult, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(exe, o.args...)
	cmd.Env = append(os.Environ(), childEnv+"="+task)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("%s child: %w", task, err)
	}
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 256<<20)
	for sc.Scan() {
		last = sc.Text()
	}
	r := &childResult{}
	if err := json.Unmarshal([]byte(last), r); err != nil {
		return nil, 0, fmt.Errorf("%s child: %w", task, err)
	}
	rss := 0.0
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
	}
	return r, rss, nil
}

// childMain runs one task of a run and prints its result as JSON.
func childMain(o options, task string, stdout io.Writer) error {
	w, _ := workloadByName(o.workload)
	// One simulation at a time on the classic engine: the numbers
	// measure the program, not the sweep pool.
	harness.SetParallelism(1)
	harness.SetPDES(0)
	quick := o.scale == smallScale
	var r *childResult
	var err error
	kind, repArg, _ := strings.Cut(task, "/")
	switch kind {
	case "rep", "rep-profiled", "traced":
		// A repetition is one simulation at a time on one thread, the
		// closed loop a single user of the simulator drives.
		runtime.GOMAXPROCS(1)
		var rep uint64
		if _, err := fmt.Sscan(repArg, &rep); err != nil {
			return fmt.Errorf("child task %q: %w", task, err)
		}
		seed := o.seed
		if w.seedPerRep {
			seed = repSeed(o.seed, rep)
		}
		var in any
		if in, err = w.setup(o.root, o.scale, seed); err != nil {
			return fmt.Errorf("%s setup: %w", w.name, err)
		}
		r, err = childRep(w, o, in, kind == "rep-profiled", kind == "traced")
	case "extras":
		r = workloadExtras(w, o)
	case "probes":
		r = &childResult{}
		if r.Values, err = layerProbes(quick); err == nil {
			var bench map[string]float64
			bench, err = simBenchmarks(o.root, o.bins, pdesWorkers(), quick)
			for k, v := range bench {
				r.Values[k] = v
			}
		}
	default:
		err = fmt.Errorf("unknown child task %q", task)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// childRep times one repetition. traced attaches sinks and reports the
// layer counters; profiled takes a CPU profile of the repetition.
func childRep(w workload, o options, in any, profiled, traced bool) (*childResult, error) {
	rec := &recorder{traced: traced}
	harness.SetObserver(rec.observe)
	defer harness.SetObserver(nil)
	var prof bytes.Buffer
	if profiled {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	rr := w.run(in, o.scale, rec)
	wall := time.Since(t0).Seconds()
	runtime.ReadMemStats(&ms1)
	if profiled {
		pprof.StopCPUProfile()
	}
	cycles, events := rec.totals()
	r := &childResult{
		Wall: wall, Cycles: cycles, Events: events, Sims: len(rec.sims),
		Digest:   rr.out + rec.simDigest(),
		PaperErr: rr.paperErr,
		AllocMB:  float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6,
		MemMB:    float64(ms1.Sys) / 1e6,
		Values:   rr.layer,
	}
	if rr.checkErr != nil {
		r.Err = rr.checkErr.Error()
	}
	if profiled {
		r.Profile = prof.Bytes()
	}
	if traced {
		c := countersOf(rec)
		if r.Values == nil {
			r.Values = map[string]float64{}
		}
		for k, v := range c.values {
			r.Values[k] = v
		}
		r.Text = c.text
	}
	return r, nil
}

func shortHash(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:12])
}

func writeDigest(dir, name, text string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644)
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		m = min(m, x)
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// hostDescription names the host and the source the run measured: CPU
// model, CPU count, GOMAXPROCS, Go version and the commit (or, outside a
// git checkout, a hash of the module's sources and inputs).
func hostDescription(root string) string {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(l, "model name"); ok {
				if _, v, ok := strings.Cut(name, ":"); ok {
					cpu = strings.TrimSpace(v)
				}
				break
			}
		}
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d (timed repetitions: 1) go=%s os=%s/%s commit=%s",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, sourceID(root))
}

// sourceID is the checked-out commit when root is a git work tree, else
// tree:<hash of the Go sources, module files and workload files>.
func sourceID(root string) string {
	if head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(string(head))
		if name, ok := strings.CutPrefix(ref, "ref: "); ok {
			if id, err := os.ReadFile(filepath.Join(root, ".git", name)); err == nil {
				return strings.TrimSpace(string(id))
			}
		} else if ref != "" {
			return ref
		}
	}
	var files []string
	filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if ext := filepath.Ext(p); ext == ".go" || ext == ".mod" || ext == ".jobs" {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil)[:10])
}

// --- the traced run -------------------------------------------------

type unitMetric struct{ name, unit string }

// perLayer is the catalogue of per-layer metrics a traced run emits,
// every one on every workload; a layer a workload does not exercise
// reads 0.
var perLayer = func() []unitMetric {
	m := []unitMetric{
		{"sim.events", "count"}, {"sim.ns_per_event", "ns"}, {"sim.cond_pingpong_ns", "ns"},
		{"sim.process_delay_ns", "ns"}, {"sim.pdes_speedup", "x"}, {"sim.pdes_events_speedup", "x"},
		{"scc.mpb_write_ns", "ns"}, {"scc.mpb_read_ns", "ns"}, {"scc.mpb_write_cyc", "cycles"},
		{"go.alloc_mb", "MB"},
		{"noc.route_ns", "ns"}, {"noc.pcie_bytes", "bytes"}, {"noc.pcie_queue_p99_cyc", "cycles"},
		{"pcie.sif_packets", "count"}, {"pcie.round_trips", "count"}, {"pcie.header_codec_ns", "ns"},
		{"host.sif_hit", "count"}, {"host.cache_hit", "count"}, {"host.hit_ratio", "ratio"},
		{"host.vdma_copy", "count"}, {"host.wcb_flush", "count"}, {"host.commtask_busy_cyc", "cycles"},
		{"host.writeline_ns", "ns"}, {"host.qos_bw_wait_cyc", "cycles"},
		{"rcce.msgs", "count"}, {"rcce.data_bytes", "bytes"}, {"rcce.flag_writes", "count"},
		{"rcce.sendrecv_ns", "ns"}, {"rcce.sendrecv_cyc", "cycles"}, {"vscc.engaged_sends", "count"},
		{"npb.gflops", "GFLOP/s"}, {"npb.cycles", "cycles"},
		{"sched.jobs_ok", "count"}, {"sched.makespan_cyc", "cycles"}, {"sched.wait_cyc_p50", "cycles"},
		{"sched.wait_cyc_p80", "cycles"}, {"sched.submit_s", "s"}, {"sched.run_s", "s"},
		{"chaos.sched_point_s", "s"}, {"chaos.taskrt_point_s", "s"}, {"chaos.violations", "count"},
		{"taskrt.reexecs", "count"},
		{"trace.overhead", "x"}, {"harness.fanout_speedup", "x"}, {"fig6.paper_err", "ratio"},
	}
	for _, s := range fig6Schemes {
		m = append(m, unitMetric{"vscc.scheme_s." + s.Key(), "s"})
	}
	for _, b := range shareBuckets {
		m = append(m, unitMetric{shareMetric(b), "share"})
	}
	return m
}()

// shareBuckets are the CPU-profile attribution buckets: the module's
// packages plus the runtime buckets of attribute. Their shares sum to 1.
var shareBuckets = []string{
	"sim", bucketHandoff, "scc", "mem", "noc", "pcie", "host", "rcce", "ircce", "vscc",
	"npb", "sched", "taskrt", "chaos", "ckpt", "fault", "trace", "harness", "stats",
	bucketGC, bucketOther, bucketBench,
}

func shareMetric(bucket string) string {
	switch bucket {
	case bucketHandoff:
		return "sim.handoff_share"
	case bucketGC:
		return "go.gc_share"
	case bucketOther:
		return "go.other_share"
	case bucketBench:
		return "bench.self_share"
	}
	return bucket + ".self_share"
}

type layerResult struct {
	values            map[string]float64
	attempted, failed int
}

// layerRun derives the per-layer metrics: CPU shares from the profiles
// of the timed repetitions, layer counters from one traced repetition,
// the workload's own spans, and the layer probes.
func layerRun(w workload, o options, tr *timed, log io.Writer) (*layerResult, error) {
	lr := &layerResult{values: map[string]float64{}}
	v := lr.values
	check := func(msg string) {
		lr.attempted++
		if msg != "" {
			lr.failed++
			fmt.Fprintf(log, "FAIL: %s\n", msg)
		}
	}

	var stacks []profileStack
	for _, p := range tr.profiles {
		s, err := decodeProfile(p)
		if err != nil {
			return nil, err
		}
		stacks = append(stacks, s...)
	}
	for b, s := range cpuShares(stacks) {
		if !contains(shareBuckets, b) {
			return nil, fmt.Errorf("profile bucket %q has no metric", b)
		}
		v[shareMetric(b)] = s
	}
	wall := median(tr.walls)
	v["sim.events"] = float64(tr.first.Events)
	if tr.first.Events > 0 {
		v["sim.ns_per_event"] = wall * 1e9 / float64(tr.first.Events)
	}
	v["go.alloc_mb"] = median(tr.allocMB)
	if w.name == "fig6" {
		v["fig6.paper_err"] = tr.first.PaperErr
	}
	// The workload's own spans, as medians over the timed repetitions.
	for k := range tr.layer[0] {
		var xs []float64
		for _, r := range tr.layer {
			xs = append(xs, r[k])
		}
		v[k] = median(xs)
	}

	// One traced repetition adds the layers' own counters. Its simulated
	// digest must equal the untraced one: tracing only observes.
	traced, _, err := spawnChild(o, "traced/0")
	if err != nil {
		return nil, err
	}
	check(traced.Err)
	identity := ""
	if traced.Digest != tr.first.Digest {
		identity = "traced repetition: simulated digest differs from the untraced one"
	}
	check(identity)
	if w.name != "chaos" { // the chaos targets always trace; there is no untraced run to compare
		v["trace.overhead"] = traced.Wall / wall
	}
	for k, x := range traced.Values {
		if _, timedAlready := v[k]; !timedAlready {
			v[k] = x
		}
	}
	fmt.Fprintf(log, "layer digest %s: sha256=%s\n", w.name, shortHash(traced.Text))
	if err := writeDigest(o.out, w.name+".layer.txt", traced.Text); err != nil {
		return nil, err
	}

	for _, task := range []string{"extras", "probes"} {
		r, _, err := spawnChild(o, task)
		if err != nil {
			return nil, err
		}
		for _, e := range r.Errs {
			check(e)
		}
		for k, x := range r.Values {
			v[k] = x
		}
	}
	for k := range v {
		if !hasPerLayer(k) {
			return nil, fmt.Errorf("metric %q is not in the per-layer catalogue", k)
		}
	}
	return lr, nil
}

// workloadExtras runs the spans a workload adds to its traced run:
// fig6's host seconds per scheme sweep and its sweep serial against full
// fan-out, and bt's identity across decomposed-engine worker counts.
func workloadExtras(w workload, o options) *childResult {
	r := &childResult{Values: map[string]float64{}}
	check := func(err error) {
		msg := ""
		if err != nil {
			msg = err.Error()
		}
		r.Errs = append(r.Errs, msg)
	}
	workers := pdesWorkers()
	switch w.name {
	case "fig6":
		for _, s := range fig6Schemes {
			t0 := time.Now()
			_, err := harness.InterDevicePingPong(s, harness.Sizes6(), o.scale.fig6Reps)
			check(err)
			r.Values["vscc.scheme_s."+s.Key()] = time.Since(t0).Seconds()
		}
		var reports [2]string
		var secs [2]float64
		for i, par := range []int{1, workers} {
			harness.SetParallelism(par)
			t0 := time.Now()
			c, err := harness.MeasureClaims(o.scale.fig6Reps)
			secs[i] = time.Since(t0).Seconds()
			check(err)
			if err == nil {
				reports[i] = c.Report()
			}
		}
		harness.SetParallelism(1)
		r.Values["harness.fanout_speedup"] = secs[0] / secs[1]
		if reports[0] != reports[1] {
			check(fmt.Errorf("fig6 at fan-out %d: claims differ from the serial sweep", workers))
		}
	case "bt":
		// The decomposed engine must reproduce BT exactly at 1 and N workers.
		var pts [2]string
		for i, wk := range []int{1, workers} {
			harness.SetPDES(wk)
			pt, err := harness.BTRun(btConfig(o.scale), btRanks)
			harness.SetPDES(0)
			check(err)
			pts[i] = fmt.Sprintf("%+v", pt)
		}
		if pts[0] != pts[1] {
			check(fmt.Errorf("bt on the decomposed engine differs between 1 and %d workers: %s vs %s", workers, pts[0], pts[1]))
		}
	}
	return r
}

// pdesWorkers is the parallel worker count compared against one: the
// host's CPU count, as one of the counts the PDES benchmarks run.
func pdesWorkers() int {
	if runtime.NumCPU() >= 4 {
		return 4
	}
	return 2
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

func hasPerLayer(name string) bool {
	for _, m := range perLayer {
		if m.name == name {
			return true
		}
	}
	return false
}
