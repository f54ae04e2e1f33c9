package harness

import (
	"flag"
	"fmt"
)

// RunFlags are the run-mode flags the sweep commands share: worker
// parallelism, the fault schedule, the MPB consistency checker and the
// trace and metrics outputs.
type RunFlags struct {
	parallel int
	fault    string
	check    bool
	trace    string
	metrics  bool
}

// BindRunFlags registers -parallel, -fault, -trace, -metrics and, when
// withCheck is set, -check on fs. point names the unit the command runs
// concurrently and traces (e.g. "replica"); faultExample is a schedule
// shown in -fault's usage.
func BindRunFlags(fs *flag.FlagSet, point, faultExample string, withCheck bool) *RunFlags {
	f := &RunFlags{}
	fs.IntVar(&f.parallel, "parallel", 0, point+"s run concurrently (0 = GOMAXPROCS, 1 = serial)")
	fs.StringVar(&f.fault, "fault", "", fmt.Sprintf("deterministic fault schedule, e.g. %q (see internal/fault)", faultExample))
	if withCheck {
		fs.BoolVar(&f.check, "check", false, "run with the MPB consistency checker (panics on stale-line reads)")
	}
	fs.StringVar(&f.trace, "trace", "", "write a Chrome trace-event JSON file of every "+point)
	fs.BoolVar(&f.metrics, "metrics", false, "print a cycle-accurate metrics report per "+point)
	return f
}

// Apply installs the parsed flags as the harness's process-wide run
// settings and returns the observability handle to Finish once the run
// is done.
func (f *RunFlags) Apply() (*Obs, error) {
	SetParallelism(f.parallel)
	SetConsistencyCheck(f.check)
	if err := SetFaultSpec(f.fault); err != nil {
		return nil, err
	}
	return EnableObservability(f.trace, f.metrics), nil
}
