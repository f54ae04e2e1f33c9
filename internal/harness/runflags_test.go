package harness

import (
	"flag"
	"testing"
)

// The shared run flags keep the names and defaults the commands had,
// -check only where asked for, and Apply installs what was parsed.
func TestBindRunFlags(t *testing.T) {
	fs := flag.NewFlagSet("nocheck", flag.ContinueOnError)
	BindRunFlags(fs, "run", "seed=1", false)
	if fs.Lookup("check") != nil {
		t.Error("-check registered without withCheck")
	}

	fs = flag.NewFlagSet("run", flag.ContinueOnError)
	f := BindRunFlags(fs, "run", "seed=1", true)
	for name, def := range map[string]string{"parallel": "0", "fault": "", "check": "false", "trace": "", "metrics": "false"} {
		if fl := fs.Lookup(name); fl == nil || fl.DefValue != def {
			t.Errorf("-%s: flag %v, want default %q", name, fl, def)
		}
	}
	if err := fs.Parse([]string{"-parallel", "3", "-check", "-fault", "seed=1,drop=5"}); err != nil {
		t.Fatal(err)
	}
	prev := Parallelism()
	defer func() {
		SetParallelism(prev)
		SetConsistencyCheck(false)
		SetFaultSpec("")
	}()
	obs, err := f.Apply()
	if err != nil {
		t.Fatal(err)
	}
	if Parallelism() != 3 || !consistencyCheck.Load() || faultConfig.Load() == nil || obs != nil {
		t.Errorf("Apply: parallelism %d, check %v, fault armed %v, obs %v", Parallelism(), consistencyCheck.Load(), faultConfig.Load() != nil, obs)
	}

	f.fault = "drop=x"
	if _, err := f.Apply(); err == nil {
		t.Error("Apply accepted a malformed fault spec")
	}
}
