// Command npbbt regenerates the paper's Figure 7: NPB BT scalability on
// the vSCC, comparing the optimal (local put/local get + vDMA) and worst
// (transparent routing) inter-device configurations over square process
// counts up to 225 on five devices.
//
// Absolute runs of class C use the solver's timing mode (real message
// sizes and pattern, modelled arithmetic); small classes run with real
// numerics — see DESIGN.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"vscc/internal/harness"
	"vscc/internal/npb"
	"vscc/internal/stats"
	"vscc/internal/vscc"
)

func main() {
	app := flag.String("app", "bt", "pseudo-application: bt (paper's Fig. 7) or lu (extension)")
	className := flag.String("class", "C", "NPB class (S, W, A, B, C)")
	iters := flag.Int("iters", 2, "timesteps per run (per-iteration rate is steady)")
	maxRanks := flag.Int("maxranks", 225, "largest square process count")
	countsFlag := flag.String("counts", "", "comma-separated rank counts (default: all squares up to -maxranks)")
	best := flag.Bool("best", true, "run the optimal configuration (vDMA)")
	worst := flag.Bool("worst", true, "run the worst configuration (transparent routing)")
	pdes := flag.Int("pdes", 0, "run each point on the domain-decomposed engine with N workers (0 = classic single kernel; 1 = serial PDES identity reference; -fault supports device crashes only)")
	run := harness.BindRunFlags(flag.CommandLine, "rank count", "seed=1,devcrash=400000:1:500000", false)
	flag.Parse()
	harness.SetPDES(*pdes)
	obs, err := run.Apply()
	check(err)

	class, err := npb.ClassByName(*className)
	check(err)
	runSweep := harness.BTSweep
	if *app == "lu" {
		runSweep = harness.LUSweep
	} else if *app != "bt" {
		check(fmt.Errorf("unknown app %q", *app))
	}
	var counts []int
	if *countsFlag != "" {
		for _, s := range strings.Split(*countsFlag, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			check(err)
			counts = append(counts, n)
		}
	} else {
		counts = npb.SquareCounts(*maxRanks)
	}

	fmt.Printf("== Fig. 7: NPB %s class %s (%d^3), %d iterations per run ==\n",
		strings.ToUpper(*app), class.Name, class.N, *iters)
	fmt.Printf("theoretical peak: %.1f GFLOP/s at 225 cores x 533 MFLOP/s\n\n", 225*0.533)

	var series []stats.Series
	rows := [][]string{{"ranks"}}
	type sweep struct {
		name   string
		scheme vscc.Scheme
		pts    []harness.BTPoint
	}
	var sweeps []*sweep
	if *best {
		sweeps = append(sweeps, &sweep{name: "optimal (LP/LG vDMA)", scheme: vscc.SchemeVDMA})
	}
	if *worst {
		sweeps = append(sweeps, &sweep{name: "worst (transparent routing)", scheme: vscc.SchemeRouting})
	}
	for _, sw := range sweeps {
		rows[0] = append(rows[0], sw.name+" [GFLOP/s]")
		pts, err := runSweep(harness.BTSweepConfig{
			Class: class, Iterations: *iters, Scheme: sw.scheme, Devices: 5,
		}, counts)
		check(err)
		sw.pts = pts
		for _, pt := range pts {
			fmt.Printf("  %-28s ranks=%3d  %7.3f GFLOP/s\n", sw.name, pt.Ranks, pt.GFlops)
		}
		s := stats.Series{Name: sw.name}
		for _, p := range sw.pts {
			s.Add(float64(p.Ranks), p.GFlops)
		}
		series = append(series, s)
	}
	fmt.Println()
	for i, ranks := range counts {
		row := []string{fmt.Sprint(ranks)}
		for _, sw := range sweeps {
			row = append(row, fmt.Sprintf("%.3f", sw.pts[i].GFlops))
		}
		rows = append(rows, row)
	}
	fmt.Print(stats.Table(rows))
	fmt.Println()
	fmt.Print(stats.RenderSeries("NPB "+strings.ToUpper(*app)+" scalability", "processes", "GFLOP/s", series, 64, 14))
	check(obs.Finish(os.Stdout))
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "npbbt:", err)
		os.Exit(1)
	}
}
