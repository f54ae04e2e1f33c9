package main

import (
	"fmt"
	"sort"
	"strings"
)

// layerCounters is a traced repetition's exact layer counts.
type layerCounters struct {
	values map[string]float64
	text   string // every counter and track total, sorted, for the digest
}

// countersOf sums the layer counters and track occupancy of every
// simulation of a traced repetition, read from the metrics reports.
func countersOf(rec *recorder) layerCounters {
	sum := map[string]int64{}
	busy := map[string]uint64{}
	var queueP99 float64
	for _, s := range rec.sims {
		section := ""
		for _, line := range strings.Split(s.report, "\n") {
			switch {
			case strings.HasPrefix(line, "counters:"), strings.HasPrefix(line, "histograms:"), strings.HasPrefix(line, "tracks:"):
				section = line[:strings.Index(line, ":")]
				continue
			case !strings.HasPrefix(line, "  "):
				section = ""
				continue
			}
			f := strings.Fields(line)
			switch section {
			case "counters":
				var n int64
				if len(f) == 2 {
					fmt.Sscan(f[1], &n)
					sum[f[0]] += n
				}
			case "histograms":
				if strings.HasPrefix(f[0], "noc.pcie.") && strings.HasSuffix(f[0], ".queue_cycles") {
					for _, kv := range f[1:] {
						var p float64
						if _, err := fmt.Sscanf(kv, "p99=%g", &p); err == nil && p > queueP99 {
							queueP99 = p
						}
					}
				}
			case "tracks":
				for _, kv := range f[1:] {
					var b uint64
					if _, err := fmt.Sscanf(kv, "busy=%d", &b); err == nil {
						busy[f[0]] += b
					}
				}
			}
		}
	}
	v := map[string]float64{}
	var names []string
	for n := range sum {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "counter %s %d\n", n, sum[n])
		switch {
		case strings.HasPrefix(n, "noc.pcie.") && strings.HasSuffix(n, ".bytes"):
			v["noc.pcie_bytes"] += float64(sum[n])
		case strings.HasPrefix(n, "qos.bw_wait."):
			v["host.qos_bw_wait_cyc"] += float64(sum[n])
		}
	}
	var tracks []string
	for t := range busy {
		tracks = append(tracks, t)
	}
	sort.Strings(tracks)
	for _, t := range tracks {
		fmt.Fprintf(&b, "track %s busy=%d\n", t, busy[t])
		if strings.HasPrefix(t, "commtask/") {
			v["host.commtask_busy_cyc"] += float64(busy[t])
		}
	}
	for _, n := range []string{
		"pcie.sif_packets", "pcie.round_trips", "host.sif_hit", "host.cache_hit",
		"host.vdma_copy", "host.wcb_flush", "rcce.msgs", "rcce.data_bytes",
		"rcce.flag_writes", "vscc.engaged_sends",
	} {
		v[n] = float64(sum[n])
	}
	v["taskrt.reexecs"] = float64(sum["taskrt.reexec"])
	if reads := sum["host.sif_hit"] + sum["host.cache_hit"] + sum["host.forwarded_read"]; reads > 0 {
		v["host.hit_ratio"] = float64(sum["host.sif_hit"]+sum["host.cache_hit"]) / float64(reads)
	}
	v["noc.pcie_queue_p99_cyc"] = queueP99
	return layerCounters{values: v, text: b.String()}
}
