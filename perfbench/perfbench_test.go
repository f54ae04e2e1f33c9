package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// binDir holds the sim.test and vscc.test binaries the traced runs
// read kernel benchmarks from, built once for the package's tests.
var binDir string

// TestMain doubles as the benchmark's child process: run spawns
// os.Executable, which under go test is this test binary.
func TestMain(m *testing.M) {
	if task := os.Getenv(childEnv); task != "" {
		o, err := parseOptions(os.Args[1:])
		if err == nil {
			err = childMain(o, task, os.Stdout)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	dir, err := os.MkdirTemp("", "perfbench-bins")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// buildBins compiles the test binaries the probes child runs.
func buildBins(t *testing.T) {
	t.Helper()
	for _, b := range []struct{ out, pkg string }{{"sim.test", "./internal/sim"}, {"vscc.test", "."}} {
		if _, err := os.Stat(filepath.Join(binDir, b.out)); err == nil {
			continue
		}
		cmd := exec.Command("go", "test", "-c", "-o", filepath.Join(binDir, b.out), b.pkg)
		cmd.Dir = ".."
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go test -c %s: %v\n%s", b.pkg, err, out)
		}
	}
}

// declared reads the metric names and units BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer map[string]string, workloads []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
	}
	return endToEnd, perLayer, workloads
}

// TestEveryWorkloadEmitsItsMetrics runs each declared workload at its
// smallest size, untraced and traced, and checks that the run passes
// its output checks and emits exactly the declared metrics with their
// units.
func TestEveryWorkloadEmitsItsMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	buildBins(t)
	endToEnd, perLayer, names := declared(t)
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(names), len(workloads))
	}
	for _, name := range names {
		for traceMode, want := range []map[string]string{endToEnd, perLayer} {
			t.Run(fmt.Sprintf("%s/trace=%d", name, traceMode), func(t *testing.T) {
				o, err := parseOptions([]string{
					"--workload", name, "--seed", "7", "--seconds", "0", "--small",
					"--trace", fmt.Sprint(traceMode), "--root", "..", "--bins", binDir, "--out", t.TempDir(),
				})
				if err != nil {
					t.Fatal(err)
				}
				var log strings.Builder
				res, err := run(o, time.Now(), &log)
				if err != nil {
					t.Fatalf("%v\n%s", err, log.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d (fail_frac must be 0)\n%s",
						res.Correct, res.Attempted, res.Failed, log.String())
				}
				for n, unit := range want {
					m, ok := res.Metrics[n]
					switch {
					case !ok:
						t.Errorf("metric %s not emitted", n)
					case m.Unit != unit:
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", n, m.Unit, unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("metric %s = %v", n, m.Value)
					case traceMode == 0 && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", n, m.Value)
					}
				}
				for n := range res.Metrics {
					if _, ok := want[n]; !ok {
						t.Errorf("metric %s emitted but not declared", n)
					}
				}
				if traceMode == 1 {
					sum := 0.0
					for _, m := range res.Metrics {
						if m.Unit == "share" {
							sum += m.Value
						}
					}
					if math.Abs(sum-1) > 1e-9 {
						t.Errorf("CPU shares sum to %v, want 1", sum)
					}
				}
			})
		}
	}
}

// TestResultLineIsLastAndParses checks the contract of the output: the
// last line of standard output is the JSON result object with exactly
// its four keys.
func TestResultLineIsLastAndParses(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	bin := filepath.Join(t.TempDir(), "perfbench")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "--workload", "mixed50", "--seconds", "0", "--small", "--trace", "0",
		"--root", "..", "--out", t.TempDir())
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("perfbench: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var obj map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &obj); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if len(obj) != 4 || obj["correct"] == nil || obj["attempted"] == nil || obj["failed"] == nil || obj["metrics"] == nil {
		t.Errorf("result keys = %v, want correct, attempted, failed, metrics", obj)
	}
}

// TestUnknownWorkloadFails checks that a bad command line is an error,
// not a result.
func TestUnknownWorkloadFails(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "bt", "--trace", "2"},
	} {
		if _, err := parseOptions(args); err == nil {
			t.Errorf("parseOptions(%q) accepted", args)
		}
	}
}

// TestAttributeSplitsRuntime pins the attribution rules the CPU shares
// rest on.
func TestAttributeSplitsRuntime(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"vscc/internal/sim.(*Kernel).run", "main.main"}, "sim"},
		{[]string{"runtime.chanrecv", "runtime.chanrecv1", "vscc/internal/sim.(*Proc).Delay"}, bucketHandoff},
		{[]string{"runtime.memmove", "runtime.mallocgc", "vscc/internal/scc.(*Ctx).WriteMPB"}, bucketGC},
		{[]string{"crypto/sha256.block", "vscc/internal/taskrt.(*Runtime).StateHash"}, "taskrt"},
		{[]string{"runtime.memmove", "vscc/internal/mem.(*LMB).Write"}, "mem"},
		{[]string{"runtime.futex"}, bucketOther},
		{[]string{"main.runMixed"}, bucketBench},
	} {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("attribute(%q) = %q, want %q", c.stack, got, c.want)
		}
	}
}
