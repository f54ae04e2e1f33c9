// Command pingpong regenerates the paper's Figure 6: point-to-point
// ping-pong throughput on-chip (RCCE vs iRCCE pipelined, Fig. 6a) and
// across devices under every vSCC communication scheme (Fig. 6b), plus
// the headline claims table and the Fig. 2 protocol timelines.
//
// Usage:
//
//	pingpong -onchip          # Fig. 6a series
//	pingpong -interdevice     # Fig. 6b series
//	pingpong -claims          # paper-vs-measured claims (E5-E9)
//	pingpong -timeline        # Fig. 2 blocking vs pipelined timelines
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"vscc/internal/harness"
	"vscc/internal/ircce"
	"vscc/internal/rcce"
	"vscc/internal/scc"
	"vscc/internal/sim"
	"vscc/internal/stats"
	"vscc/internal/vscc"
)

func main() {
	log.SetFlags(0)
	onchip := flag.Bool("onchip", false, "measure Fig. 6a (on-chip RCCE vs iRCCE)")
	inter := flag.Bool("interdevice", false, "measure Fig. 6b (inter-device schemes)")
	claims := flag.Bool("claims", false, "print the paper-vs-measured claims table")
	timeline := flag.Bool("timeline", false, "render Fig. 2 style protocol timelines")
	reps := flag.Int("reps", 3, "round trips per measurement")
	sizesFlag := flag.String("sizes", "", "comma-separated message sizes [B] (default: the Fig. 6 sweep)")
	run := harness.BindRunFlags(flag.CommandLine, "measured point", "seed=7,drop=20,stall=1000000:200000", true)
	flag.Parse()
	obs, err := run.Apply()
	check(err)
	if !*onchip && !*inter && !*claims && !*timeline {
		*onchip, *inter = true, true
	}
	sizes := harness.Sizes6()
	if *sizesFlag != "" {
		sizes = nil
		for _, s := range strings.Split(*sizesFlag, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			check(err)
			sizes = append(sizes, n)
		}
	}

	if *onchip {
		rccePts, err := harness.OnChipPingPong(nil, 0, 1, sizes, *reps)
		check(err)
		irccePts, err := harness.OnChipPingPong(func() rcce.Protocol { return &ircce.PipelinedProtocol{} }, 0, 1, sizes, *reps)
		check(err)
		fmt.Println("== Fig. 6a: on-chip ping-pong throughput ==")
		rows := [][]string{{"size [B]", "RCCE [MB/s]", "iRCCE pipelined [MB/s]"}}
		for i := range rccePts {
			rows = append(rows, []string{
				fmt.Sprint(rccePts[i].Size),
				fmt.Sprintf("%.2f", rccePts[i].MBps),
				fmt.Sprintf("%.2f", irccePts[i].MBps),
			})
		}
		fmt.Print(stats.Table(rows))
		fmt.Println()
		fmt.Print(stats.RenderSeries("on-chip throughput", "message size [B]", "MB/s",
			[]stats.Series{harness.ToSeries("RCCE", rccePts), harness.ToSeries("iRCCE pipelined", irccePts)}, 64, 14))
		fmt.Println()
	}

	if *inter {
		fmt.Println("== Fig. 6b: inter-device ping-pong throughput ==")
		schemes := []vscc.Scheme{
			vscc.SchemeRouting, vscc.SchemeHostRouted, vscc.SchemeCachedGet,
			vscc.SchemeRemotePut, vscc.SchemeVDMA, vscc.SchemeHWAccel,
		}
		var series []stats.Series
		rows := [][]string{{"size [B]"}}
		for _, s := range schemes {
			rows[0] = append(rows[0], s.String())
		}
		all := make(map[vscc.Scheme][]harness.PingPongPoint)
		for _, s := range schemes {
			pts, err := harness.InterDevicePingPong(s, sizes, *reps)
			check(err)
			all[s] = pts
			series = append(series, harness.ToSeries(s.String(), pts))
		}
		for i, size := range sizes {
			row := []string{fmt.Sprint(size)}
			for _, s := range schemes {
				row = append(row, fmt.Sprintf("%.2f", all[s][i].MBps))
			}
			rows = append(rows, row)
		}
		fmt.Print(stats.Table(rows))
		fmt.Println()
		fmt.Print(stats.RenderSeries("inter-device throughput", "message size [B]", "MB/s", series, 64, 14))
		fmt.Println()
	}

	if *claims {
		c, err := harness.MeasureClaims(*reps)
		check(err)
		fmt.Println("== headline claims (DESIGN.md E5-E9) ==")
		fmt.Print(c.Report())
		fmt.Println()
	}

	if *timeline {
		fmt.Println("== Fig. 2: blocking vs pipelined protocol timelines (64 kB on-chip transfer) ==")
		fmt.Println("-- RCCE blocking (local put / remote get):")
		fmt.Print(renderTimeline(nil))
		fmt.Println("-- iRCCE pipelined:")
		fmt.Print(renderTimeline(&ircce.PipelinedProtocol{}))
	}

	check(obs.Finish(os.Stdout))
}

// renderTimeline runs one 64 kB transfer and renders the recorded spans.
func renderTimeline(proto rcce.Protocol) string {
	k := sim.NewKernel()
	chip := harness.ApplyCheck(scc.NewChip(k, 0, scc.DefaultParams()))
	places, err := rcce.LinearPlaces([]*scc.Chip{chip}, 2)
	check(err)
	tl := sim.NewTimeline(k)
	opts := []rcce.Option{rcce.WithTimeline(tl)}
	if proto != nil {
		opts = append(opts, rcce.WithProtocol(proto))
	}
	session, err := rcce.NewSession(k, []*scc.Chip{chip}, places, opts...)
	check(err)
	msg := make([]byte, 64*1024)
	err = session.Run(func(r *rcce.Rank) {
		if r.ID() == 0 {
			r.Send(1, msg)
		} else {
			r.Recv(0, make([]byte, len(msg)))
		}
	})
	check(err)
	return tl.Render(96)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "pingpong:", err)
		os.Exit(1)
	}
}
