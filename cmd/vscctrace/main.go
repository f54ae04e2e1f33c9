// Command vscctrace inspects a Chrome trace-event JSON file written by
// the -trace flag of cmd/pingpong, cmd/npbbt or cmd/ablate — a
// terminal-side answer to "what is in this trace" without loading
// about://tracing or Perfetto.
//
// For every process (one per capture/subsystem pair) it prints the
// thread rows with their span counts and busy cycles, the top span
// names by total duration, and the final counter values.
//
// With -recovery it instead tabulates the device fault/recovery ledger:
// per device, the injected device faults, rejoins, epoch advances,
// checkpoints, journal-replay and PCIe-replay volumes, the job-level
// recovery work (devretry requeues and exhausted budgets from the
// scheduler, task re-executions from the task runtime), plus the other
// per-device recovery actions — the terminal-side summary of a
// crash-recovery run (fault spec devcrash=.../devlinkdown=...). The
// ledger is tallied per source file first and identical per-device
// ledgers are counted once across files, so handing vscctrace a merged
// export alongside one of its sources does not double-count.
//
// With -tenant N the event stream is restricted to tenant N of a
// multi-tenant run (cmd/vsccd): tracks whose thread carries the
// tenant's tag and the tenant's ".tNNN" counters, with process names
// kept for orientation. The filter composes with the span view and
// -merge (exporting one tenant's trace).
//
// Several trace files — e.g. the per-kernel captures of a PDES run —
// may be given together: their events are merged into one canonically
// ordered stream (stable sort by cycle, then kernel id parsed from the
// capture label's /k<N> component, then span sequence within each
// file), so the analysis and the -merge export are deterministic
// functions of the input set. -recovery sums the ledger across files.
//
// Usage:
//
//	vscctrace trace.json
//	vscctrace -top 5 trace.json
//	vscctrace -recovery trace.json
//	vscctrace -tenant 3 trace.json
//	vscctrace -merge merged.json k0.json k1.json khost.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"

	"vscc/internal/trace"
)

// event is the subset of the Chrome trace-event fields the exporter
// emits (chrome.go): metadata (M), complete spans (X), instants (i) and
// counters (C).
type event struct {
	Ph   string `json:"ph"`
	Pid  int    `json:"pid"`
	Tid  int    `json:"tid"`
	Ts   uint64 `json:"ts"`
	Dur  uint64 `json:"dur"`
	S    string `json:"s"`
	Name string `json:"name"`
	Args struct {
		Name  string `json:"name"`
		Value int64  `json:"value"`
	} `json:"args"`
}

type document struct {
	TraceEvents []event `json:"traceEvents"`
}

// kernelLabel extracts the kernel id from a capture label: /k<N>/ maps
// to N, /khost to a sentinel sorting after every device kernel.
var kernelLabel = regexp.MustCompile(`/k(\d+|host)(/|$)`)

const hostKernel = 1 << 30

// taggedEvent carries the canonical merge keys alongside one event:
// the source file index, the kernel id of its process (from the
// capture label) and its span sequence number (emission order within
// its source file).
type taggedEvent struct {
	event
	file   int
	kernel int
	seq    int
}

// loadMerged reads every file and returns one canonically ordered
// event stream: a stable sort by cycle, then kernel id, then source
// file, then per-file span sequence. Pids are remapped to be globally
// unique, numbered by first appearance in the canonical order — so
// analysing the merged stream (or a -merge output re-read later) is
// idempotent, independent of how events were split across input files.
func loadMerged(paths []string) []taggedEvent {
	var merged []taggedEvent
	for fi, path := range paths {
		f, err := os.Open(path)
		check(err)
		var doc document
		check(json.NewDecoder(f).Decode(&doc))
		f.Close()
		// The kernel id of each original pid comes from its
		// process_name metadata record.
		kern := map[int]int{}
		for _, ev := range doc.TraceEvents {
			if ev.Ph == "M" && ev.Name == "process_name" {
				if m := kernelLabel.FindStringSubmatch(ev.Args.Name); m != nil {
					if m[1] == "host" {
						kern[ev.Pid] = hostKernel
					} else {
						n, _ := strconv.Atoi(m[1])
						kern[ev.Pid] = n
					}
				}
			}
		}
		for i, ev := range doc.TraceEvents {
			kid, ok := kern[ev.Pid]
			if !ok {
				// No kernel label (classic single-kernel capture):
				// order by original pid, after labelled kernels of the
				// same cycle for stability across mixed inputs.
				kid = hostKernel + 1 + ev.Pid
			}
			merged = append(merged, taggedEvent{event: ev, file: fi, kernel: kid, seq: i})
		}
	}
	sort.SliceStable(merged, func(i, j int) bool {
		a, b := merged[i], merged[j]
		if a.Ts != b.Ts {
			return a.Ts < b.Ts
		}
		if a.kernel != b.kernel {
			return a.kernel < b.kernel
		}
		if a.file != b.file {
			return a.file < b.file
		}
		return a.seq < b.seq
	})
	// Renumber pids by first appearance in canonical order.
	type srcPid struct{ file, pid int }
	remap := map[srcPid]int{}
	for i := range merged {
		key := srcPid{merged[i].file, merged[i].event.Pid}
		np, ok := remap[key]
		if !ok {
			np = len(remap)
			remap[key] = np
		}
		merged[i].event.Pid = np
	}
	return merged
}

// writeMerged exports the canonical stream in the exporter's own
// Chrome trace-event dialect (chrome.go), so a merged file round-trips
// through vscctrace and the browser tools alike.
func writeMerged(path string, events []taggedEvent) {
	f, err := os.Create(path)
	check(err)
	bw := bufio.NewWriter(f)
	bw.WriteString("{\"displayTimeUnit\":\"ms\",\n")
	bw.WriteString("\"otherData\":{\"clock\":\"simulated core cycles (1 us = 1 cycle at 533 MHz)\"},\n")
	bw.WriteString("\"traceEvents\":[\n")
	for i, te := range events {
		if i > 0 {
			bw.WriteString(",\n")
		}
		ev := te.event
		switch ev.Ph {
		case "M":
			if ev.Name == "process_name" {
				fmt.Fprintf(bw, "{\"ph\":\"M\",\"pid\":%d,\"name\":\"process_name\",\"args\":{\"name\":%s}}",
					ev.Pid, trace.QuoteJSON(ev.Args.Name))
			} else {
				fmt.Fprintf(bw, "{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":%s,\"args\":{\"name\":%s}}",
					ev.Pid, ev.Tid, trace.QuoteJSON(ev.Name), trace.QuoteJSON(ev.Args.Name))
			}
		case "X":
			fmt.Fprintf(bw, "{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%d,\"dur\":%d,\"name\":%s}",
				ev.Pid, ev.Tid, ev.Ts, ev.Dur, trace.QuoteJSON(ev.Name))
		case "i":
			fmt.Fprintf(bw, "{\"ph\":\"i\",\"pid\":%d,\"tid\":%d,\"ts\":%d,\"s\":\"t\",\"name\":%s}",
				ev.Pid, ev.Tid, ev.Ts, trace.QuoteJSON(ev.Name))
		case "C":
			fmt.Fprintf(bw, "{\"ph\":\"C\",\"pid\":%d,\"ts\":%d,\"name\":%s,\"args\":{\"value\":%d}}",
				ev.Pid, ev.Ts, trace.QuoteJSON(ev.Name), ev.Args.Value)
		}
	}
	bw.WriteString("\n]}\n")
	check(bw.Flush())
	check(f.Close())
}

// thread aggregates one tid's rows.
type thread struct {
	name     string
	spans    int
	busy     uint64
	instants int
}

// process aggregates one pid.
type process struct {
	pid      int
	name     string
	threads  map[int]*thread
	spanDur  map[string]uint64 // total duration by span name
	spanCnt  map[string]int
	counters map[string]int64 // final value by counter name
	order    []string         // counter first-appearance order
}

func main() {
	top := flag.Int("top", 10, "span names to list per process, by total duration")
	recovery := flag.Bool("recovery", false, "print the per-device fault/recovery ledger instead of the span view")
	tenant := flag.Int("tenant", -1, "restrict the stream to this tenant's tracks and counters (-1 off)")
	mergeOut := flag.String("merge", "", "write the merged, canonically ordered trace to FILE")
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: vscctrace [-top N] [-recovery] [-tenant N] [-merge out.json] trace.json [more.json ...]")
		os.Exit(2)
	}
	events := loadMerged(flag.Args())
	if *tenant >= 0 {
		events = filterTenant(events, *tenant)
	}
	if *mergeOut != "" {
		writeMerged(*mergeOut, events)
	}

	procs := map[int]*process{}
	get := func(pid int) *process {
		p, ok := procs[pid]
		if !ok {
			p = &process{
				pid: pid, threads: map[int]*thread{},
				spanDur: map[string]uint64{}, spanCnt: map[string]int{},
				counters: map[string]int64{},
			}
			procs[pid] = p
		}
		return p
	}
	getThread := func(p *process, tid int) *thread {
		t, ok := p.threads[tid]
		if !ok {
			t = &thread{}
			p.threads[tid] = t
		}
		return t
	}
	for _, te := range events {
		ev := te.event
		p := get(ev.Pid)
		switch ev.Ph {
		case "M":
			switch ev.Name {
			case "process_name":
				p.name = ev.Args.Name
			case "thread_name":
				getThread(p, ev.Tid).name = ev.Args.Name
			}
		case "X":
			t := getThread(p, ev.Tid)
			t.spans++
			t.busy += ev.Dur
			p.spanCnt[ev.Name]++
			p.spanDur[ev.Name] += ev.Dur
		case "i":
			getThread(p, ev.Tid).instants++
		case "C":
			if _, ok := p.counters[ev.Name]; !ok {
				p.order = append(p.order, ev.Name)
			}
			// Events are time-ordered per counter, so the last sample
			// wins — the final value.
			p.counters[ev.Name] = ev.Args.Value
		}
	}

	pids := make([]int, 0, len(procs))
	for pid := range procs {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	if *recovery {
		printRecovery(recoveryLedgers(events))
		return
	}
	source := flag.Arg(0)
	if flag.NArg() > 1 {
		source = fmt.Sprintf("%d files", flag.NArg())
	}
	fmt.Printf("%s: %d events, %d processes\n", source, len(events), len(pids))
	for _, pid := range pids {
		p := procs[pid]
		fmt.Printf("\npid %d: %s\n", pid, p.name)
		tids := make([]int, 0, len(p.threads))
		for tid := range p.threads {
			tids = append(tids, tid)
		}
		sort.Ints(tids)
		for _, tid := range tids {
			t := p.threads[tid]
			if t.spans == 0 && t.instants == 0 && t.name == "" {
				continue
			}
			fmt.Printf("  tid %-3d %-24s spans=%-7d busy=%-12d", tid, t.name, t.spans, t.busy)
			if t.instants > 0 {
				fmt.Printf(" instants=%d", t.instants)
			}
			fmt.Println()
		}
		if len(p.spanDur) > 0 {
			names := make([]string, 0, len(p.spanDur))
			for n := range p.spanDur {
				names = append(names, n)
			}
			sort.Slice(names, func(i, j int) bool {
				if p.spanDur[names[i]] != p.spanDur[names[j]] {
					return p.spanDur[names[i]] > p.spanDur[names[j]]
				}
				return names[i] < names[j]
			})
			if len(names) > *top {
				names = names[:*top]
			}
			fmt.Println("  top spans by total duration:")
			for _, n := range names {
				fmt.Printf("    %-32s n=%-7d total=%d cycles\n", n, p.spanCnt[n], p.spanDur[n])
			}
		}
		if len(p.order) > 0 {
			names := append([]string(nil), p.order...)
			sort.Strings(names)
			fmt.Println("  final counters:")
			for _, n := range names {
				fmt.Printf("    %-36s %12d\n", n, p.counters[n])
			}
		}
	}
}

// devCounter matches the per-device mirror counters the injector and the
// membership manager emit ("fault.recover.rejoin.d1", "ckpt.take.d0",
// "replay.frames.d2", ...).
var devCounter = regexp.MustCompile(`^(.+)\.d(\d+)$`)

// devLedger is one device's recovery tally across every process of the
// trace.
type devLedger struct {
	crashes   int64 // fault.inject.devcrash
	linkdowns int64 // fault.inject.devlinkdown
	rejoins   int64 // fault.recover.rejoin
	epochs    int64 // epoch.advance
	ckpts     int64 // ckpt.take
	jrnWrites int64 // replay.writes  (checkpoint journal, restore)
	jrnBytes  int64 // replay.bytes
	pcieFr    int64 // replay.frames  (held SIF frames, re-driven)
	pcieBytes int64 // replay.frame_bytes
	requeued  int64 // sched.requeued      (devretry jobs readmitted off this device)
	exhausted int64 // sched.retry_exhausted (devretry budgets spent on this device)
	reexecs   int64 // taskrt.reexec       (tasks re-issued off this device)
	injected  int64 // all fault.inject.* for this device
	recovered int64 // all fault.recover.* for this device
}

// add folds one final counter value into the ledger, keyed by the
// counter's base name (the part before the ".dN" device suffix).
func (l *devLedger) add(base string, v int64) {
	switch base {
	case "fault.inject.devcrash":
		l.crashes += v
	case "fault.inject.devlinkdown":
		l.linkdowns += v
	case "fault.recover.rejoin":
		l.rejoins += v
	case "epoch.advance":
		l.epochs += v
	case "ckpt.take":
		l.ckpts += v
	case "replay.writes":
		l.jrnWrites += v
	case "replay.bytes":
		l.jrnBytes += v
	case "replay.frames":
		l.pcieFr += v
	case "replay.frame_bytes":
		l.pcieBytes += v
	case "sched.requeued":
		l.requeued += v
	case "sched.retry_exhausted":
		l.exhausted += v
	case "taskrt.reexec":
		l.reexecs += v
	}
	if len(base) > 13 && base[:13] == "fault.inject." {
		l.injected += v
	}
	if len(base) > 14 && base[:14] == "fault.recover." {
		l.recovered += v
	}
}

// merge sums another ledger into this one.
func (l *devLedger) merge(o devLedger) {
	l.crashes += o.crashes
	l.linkdowns += o.linkdowns
	l.rejoins += o.rejoins
	l.epochs += o.epochs
	l.ckpts += o.ckpts
	l.jrnWrites += o.jrnWrites
	l.jrnBytes += o.jrnBytes
	l.pcieFr += o.pcieFr
	l.pcieBytes += o.pcieBytes
	l.requeued += o.requeued
	l.exhausted += o.exhausted
	l.reexecs += o.reexecs
	l.injected += o.injected
	l.recovered += o.recovered
}

// recoveryLedgers tallies the per-device fault/recovery counters from
// the merged stream. Values are aggregated per source file first (last
// sample of each counter within a file wins, processes summed), and
// only then combined across files — a file whose ledger for a device is
// identical to one already counted is skipped. Without that step the
// same device ledger appearing in two merged inputs (a merged export
// handed in next to one of its source captures, or the same capture
// listed twice) doubled every checkpoint and replay figure.
func recoveryLedgers(events []taggedEvent) map[int]*devLedger {
	type counterKey struct {
		file, pid int
		name      string
	}
	final := map[counterKey]int64{}
	var order []counterKey
	for _, te := range events {
		if te.Ph != "C" {
			continue
		}
		k := counterKey{te.file, te.event.Pid, te.Name}
		if _, ok := final[k]; !ok {
			order = append(order, k)
		}
		final[k] = te.Args.Value
	}
	perFile := map[int]map[int]*devLedger{}
	for _, k := range order {
		m := devCounter.FindStringSubmatch(k.name)
		if m == nil {
			continue
		}
		dev, err := strconv.Atoi(m[2])
		if err != nil {
			continue
		}
		fl := perFile[k.file]
		if fl == nil {
			fl = map[int]*devLedger{}
			perFile[k.file] = fl
		}
		l := fl[dev]
		if l == nil {
			l = &devLedger{}
			fl[dev] = l
		}
		l.add(m[1], final[k])
	}
	files := make([]int, 0, len(perFile))
	for f := range perFile {
		files = append(files, f)
	}
	sort.Ints(files)
	out := map[int]*devLedger{}
	seen := map[int]map[devLedger]bool{}
	for _, f := range files {
		devs := make([]int, 0, len(perFile[f]))
		for d := range perFile[f] {
			devs = append(devs, d)
		}
		sort.Ints(devs)
		for _, d := range devs {
			l := *perFile[f][d]
			if seen[d] == nil {
				seen[d] = map[devLedger]bool{}
			}
			if seen[d][l] {
				continue
			}
			seen[d][l] = true
			o := out[d]
			if o == nil {
				o = &devLedger{}
				out[d] = o
			}
			o.merge(l)
		}
	}
	return out
}

// filterTenant restricts the stream to one tenant: spans and instants
// on tracks whose thread name carries the tenant tag, counters with the
// tenant's ".tNNN" component, thread metadata of the kept tracks, and
// every process_name record (so the remaining events stay attributable).
func filterTenant(events []taggedEvent, id int) []taggedEvent {
	type track struct{ pid, tid int }
	keep := map[track]bool{}
	for _, te := range events {
		if te.Ph == "M" && te.Name == "thread_name" && trace.HasTenantTag(te.Args.Name, id) {
			keep[track{te.event.Pid, te.Tid}] = true
		}
	}
	var out []taggedEvent
	for _, te := range events {
		switch te.Ph {
		case "M":
			if te.Name == "process_name" || keep[track{te.event.Pid, te.Tid}] {
				out = append(out, te)
			}
		case "X", "i":
			if keep[track{te.event.Pid, te.Tid}] {
				out = append(out, te)
			}
		case "C":
			if trace.HasTenantTag(te.Name, id) {
				out = append(out, te)
			}
		}
	}
	return out
}

// printRecovery renders the per-device fault/recovery table.
func printRecovery(ledgers map[int]*devLedger) {
	if len(ledgers) == 0 {
		fmt.Println("no per-device fault/recovery counters in this trace (run with -trace and a -fault schedule)")
		return
	}
	devs := make([]int, 0, len(ledgers))
	for d := range ledgers {
		devs = append(devs, d)
	}
	sort.Ints(devs)
	fmt.Printf("%-4s %7s %7s %7s %7s %7s %10s %12s %10s %12s %8s %7s %7s %9s %9s\n",
		"dev", "crash", "linkdn", "rejoin", "epoch", "ckpt",
		"jrn.wr", "jrn.bytes", "pcie.fr", "pcie.bytes", "requeued", "exhaust", "reexec", "injected", "recovered")
	for _, d := range devs {
		l := ledgers[d]
		fmt.Printf("d%-3d %7d %7d %7d %7d %7d %10d %12d %10d %12d %8d %7d %7d %9d %9d\n",
			d, l.crashes, l.linkdowns, l.rejoins, l.epochs, l.ckpts,
			l.jrnWrites, l.jrnBytes, l.pcieFr, l.pcieBytes, l.requeued, l.exhausted, l.reexecs, l.injected, l.recovered)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "vscctrace:", err)
		os.Exit(1)
	}
}
