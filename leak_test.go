package vscc_test

import (
	"runtime"
	"testing"
	"time"

	"vscc/internal/chaos"
	"vscc/internal/harness"
	"vscc/internal/vscc"
)

// settleGoroutines polls until the goroutine count is back at base: a
// released process's goroutine exits just after its last handoff.
func settleGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines left behind (baseline %d)", what, runtime.NumGoroutine()-base, base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReleaseReturnsGoroutines is the regression test for the
// parked-process leak: a finished simulation used to leave every host
// daemon, and every rank stranded by a device crash, blocked for the
// life of the process, holding the whole simulation. Repeated Fig. 6
// style points and a devcrash chaos point must each return the
// goroutine count to its baseline.
func TestReleaseReturnsGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for rep := 0; rep < 3; rep++ {
		if _, err := harness.InterDevicePingPong(vscc.SchemeCachedGet, []int{1024, 8192}, 1); err != nil {
			t.Fatal(err)
		}
		settleGoroutines(t, base, "fig6 points")
	}
	for _, target := range chaos.DefaultTargets() {
		spec := chaos.Spec(target.Base, []chaos.Fault{{Site: "devcrash", Dev: 1, At: 100_000, Dur: 400_000}})
		if _, problems := target.Run(spec); len(problems) > 0 {
			t.Fatalf("%s: %v", target.Name, problems)
		}
		settleGoroutines(t, base, "devcrash chaos point on "+target.Name)
	}
}
