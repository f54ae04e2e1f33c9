// Pinned classic-engine outputs. Every other identity gate compares a
// run with another run of the same tree (serial vs parallel, one
// invocation vs the next), so a change that moves the classic engine's
// simulated bytes passes them all. This test compares sha256 digests of
// the printed points, the metrics reports and the Chrome trace export
// against pinned constants. A change that claims byte-identity must
// leave them unchanged; one that moves the outputs on purpose re-records
// them and says why.
package vscc_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"vscc/internal/harness"
	"vscc/internal/npb"
	"vscc/internal/rcce"
	"vscc/internal/sim"
	"vscc/internal/trace"
	"vscc/internal/vscc"
)

// goldenDigests are the sha256 digests of one pinned run's three
// outputs.
type goldenDigests struct {
	out, metrics, chrome string
}

func sha(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// captureGolden runs fn with a trace collector installed as the
// harness observer, serially and under faultSpec, and digests the text
// fn prints together with the collected metrics and Chrome trace.
func captureGolden(t *testing.T, faultSpec string, fn func(col *trace.Collector, out *strings.Builder) error) goldenDigests {
	t.Helper()
	prevPar := harness.Parallelism()
	harness.SetParallelism(1)
	defer harness.SetParallelism(prevPar)
	if err := harness.SetFaultSpec(faultSpec); err != nil {
		t.Fatalf("SetFaultSpec(%q): %v", faultSpec, err)
	}
	defer harness.SetFaultSpec("")
	var col trace.Collector
	prevObs := harness.SetObserver(col.New)
	defer harness.SetObserver(prevObs)

	var out strings.Builder
	if err := fn(&col, &out); err != nil {
		t.Fatal(err)
	}
	caps := col.Captures()
	var chrome strings.Builder
	if err := trace.WriteChrome(&chrome, caps); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	return goldenDigests{out: sha(out.String()), metrics: sha(trace.Report(caps)), chrome: sha(chrome.String())}
}

// pingPongGolden prints every scheme's inter-device ping-pong points.
func pingPongGolden(schemes []vscc.Scheme, sizes []int) func(*trace.Collector, *strings.Builder) error {
	return func(_ *trace.Collector, out *strings.Builder) error {
		for _, s := range schemes {
			pts, err := harness.InterDevicePingPong(s, sizes, 1)
			if err != nil {
				return err
			}
			for _, p := range pts {
				fmt.Fprintf(out, "%s %+v\n", s.Key(), p)
			}
		}
		return nil
	}
}

// btGolden runs one BT class S iteration with 16 ranks split 8+8 over
// two devices, so the halo exchanges cross the host task's vDMA path.
func btGolden(col *trace.Collector, out *strings.Builder) error {
	k := sim.NewKernel()
	defer k.Release()
	sys, err := vscc.NewSystem(k, vscc.Config{Devices: 2, Scheme: vscc.SchemeVDMA})
	if err != nil {
		return err
	}
	sink := col.New("golden/bt/vdma/ranks=016", k)
	sys.Instrument(sink)
	var places []rcce.Place
	for dev := 0; dev < 2; dev++ {
		for core := 0; core < 8; core++ {
			places = append(places, rcce.Place{Dev: dev, Core: core})
		}
	}
	session, err := sys.NewSessionAt(places, rcce.WithSink(sink))
	if err != nil {
		return err
	}
	d, err := npb.NewDecomp(npb.ClassS.N, len(places))
	if err != nil {
		return err
	}
	res, err := npb.RunOn(session, d, npb.Config{Class: npb.ClassS, Iterations: 1, Timing: true})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%+v end=%d events=%d\n", res, k.Now(), k.Events())
	return nil
}

func TestClassicOutputsPinned(t *testing.T) {
	allSchemes := []vscc.Scheme{
		vscc.SchemeRouting, vscc.SchemeHostRouted, vscc.SchemeCachedGet,
		vscc.SchemeRemotePut, vscc.SchemeVDMA, vscc.SchemeHWAccel,
	}
	cases := []struct {
		name  string
		fault string
		run   func(*trace.Collector, *strings.Builder) error
		want  goldenDigests
	}{
		{
			name: "pingpong/all-schemes/1K+64K",
			run:  pingPongGolden(allSchemes, []int{1024, 65536}),
			want: goldenDigests{
				out:     "9d74942df7b76fd682d89dee17d2239483e6fe7f85a359b02128b2d20ff009b5",
				metrics: "515bd3cae5dfcb6ecae4fa8f52aeed7519d35cfe625b8834de58d266f2c87fd3",
				chrome:  "952bc2a6aa8d819c97efd867718d396fa7e53ad85ec2b545cfbcfa7166f2a2a0",
			},
		},
		{
			name: "bt/S/16-ranks/2-devices/vdma",
			run:  btGolden,
			want: goldenDigests{
				out:     "5be9b55aae1ec8dfedf0df8f28ae89d2a70498b2eae8a409cb15255e1997df8b",
				metrics: "b8bd13b9486c55a1ad11bb1a0bb082a0a754bc40ca7d4795d003b040a7d07f4c",
				chrome:  "3ab3993608b2573f57f94ce20ba79ae336c5b6c7512c6e4932b014e28e7a7936",
			},
		},
		{
			name:  "pingpong/all-schemes/8K/faults",
			fault: "seed=7,drop=20,stall=1000000:200000",
			run:   pingPongGolden(allSchemes, []int{8192}),
			want: goldenDigests{
				out:     "e04a89749f8801ae48cd333024f0a33ad4fee6ec6615b4ab4c04364f4d9027e3",
				metrics: "e374d45f2cd0ba80c36e520651de718a9ef45b13dfd8b71625bd726f33ee88b3",
				chrome:  "bf350729d88e68beb7ca033b146c3c598c7684fe308784a424d2cfda81849b9b",
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := captureGolden(t, c.fault, c.run)
			if got.out != c.want.out {
				t.Errorf("printed points: sha256 %s, pinned %s", got.out, c.want.out)
			}
			if got.metrics != c.want.metrics {
				t.Errorf("metrics report: sha256 %s, pinned %s", got.metrics, c.want.metrics)
			}
			if got.chrome != c.want.chrome {
				t.Errorf("chrome trace: sha256 %s, pinned %s", got.chrome, c.want.chrome)
			}
		})
	}
}
