// Command ablate runs the ablation studies for the communication task's
// design choices (DESIGN.md §4b/4c): SIF prefetch streaming, the
// write-combining flush granularity, the vDMA burst and slot sizes, the
// small-message direct-transfer threshold, and topology-aware placement.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"vscc/internal/harness"
	"vscc/internal/stats"
	"vscc/internal/vscc"
)

func main() {
	size := flag.Int("size", 65536, "message size for throughput ablations [B]")
	reps := flag.Int("reps", 3, "round trips per measurement")
	run := harness.BindRunFlags(flag.CommandLine, "ablation point", "seed=7,drop=20,stall=1000000:200000", true)
	// The BT scheme ablation runs untraced (see harness.AblateBTScheme).
	flag.Lookup("trace").Usage = "write a Chrome trace-event JSON file of the ping-pong ablation points"
	flag.Lookup("metrics").Usage = "print a cycle-accurate metrics report per ping-pong ablation point"
	flag.Parse()
	obs, err := run.Apply()
	check(err)

	fmt.Println("== ablation: SIF prefetch streaming (LP/RG + cache) ==")
	on, off, err := harness.AblateSIFStreaming(*size, *reps)
	check(err)
	fmt.Print(stats.Table([][]string{
		{"configuration", "MB/s"},
		{"streaming (prefetch to the reader's SIF)", fmt.Sprintf("%.2f", on)},
		{"no streaming (every read round-trips)", fmt.Sprintf("%.2f", off)},
	}))
	fmt.Printf("-> the stream is worth %.1fx\n\n", on/off)

	fmt.Println("== ablation: write-combining flush granularity (RP + WCB) ==")
	flushes := []int{64, 256, 1024, 4096}
	res, err := harness.AblateWCBFlush(*size, *reps, flushes)
	check(err)
	printSweep("flush threshold [B]", flushes, res)

	fmt.Println("== ablation: host DMA burst size (LP/LG + vDMA) ==")
	bursts := []int{128, 256, 1024, 3424}
	res, err = harness.AblateDMABurst(*size, *reps, bursts)
	check(err)
	printSweep("burst [B]", bursts, res)

	fmt.Println("== ablation: vDMA double-buffer slot size ==")
	slots := []int{512, 1024, 2048, 3424}
	res, err = harness.AblateVDMASlot(*size, *reps, slots)
	check(err)
	printSweep("slot [B]", slots, res)

	fmt.Println("== ablation: small-message direct threshold (64 B, vDMA scheme) ==")
	direct, engaged, err := harness.AblateDirectThreshold(vscc.SchemeVDMA, 64, *reps)
	check(err)
	fmt.Print(stats.Table([][]string{
		{"path", "cycles/message"},
		{"direct transfer (below threshold)", fmt.Sprint(direct)},
		{"vDMA engaged", fmt.Sprint(engaged)},
	}))
	fmt.Printf("-> the threshold saves %.1f%% latency on 64 B messages (paper §3.3: 32-128 B)\n\n",
		100*(1-float64(direct)/float64(engaged)))

	fmt.Println("== ablation: BT 100 ranks under every scheme (1 iteration, class C) ==")
	schemes := []vscc.Scheme{vscc.SchemeRouting, vscc.SchemeCachedGet, vscc.SchemeRemotePut, vscc.SchemeVDMA}
	bt, err := harness.AblateBTScheme(100, 1, schemes)
	check(err)
	rows := [][]string{{"scheme", "GFLOP/s"}}
	for _, s := range schemes {
		rows = append(rows, []string{s.String(), fmt.Sprintf("%.3f", bt[s])})
	}
	fmt.Print(stats.Table(rows))
	check(obs.Finish(os.Stdout))
}

func printSweep(label string, keys []int, res map[int]float64) {
	sort.Ints(keys)
	rows := [][]string{{label, "MB/s"}}
	for _, k := range keys {
		rows = append(rows, []string{fmt.Sprint(k), fmt.Sprintf("%.2f", res[k])})
	}
	fmt.Print(stats.Table(rows))
	fmt.Println()
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "ablate:", err)
		os.Exit(1)
	}
}
