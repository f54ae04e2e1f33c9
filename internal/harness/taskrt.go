package harness

import (
	"fmt"

	"vscc/internal/rcce"
	"vscc/internal/sim"
	"vscc/internal/taskrt"
	"vscc/internal/vscc"
)

// TaskrtConfig selects one task-runtime measurement: a workload from
// taskrt.Workloads() on one communication scheme, run as Replicas
// independent simulations (each replica builds its own kernel, system
// and task graph — the fan-out unit of the -parallel sweeps, and the
// identity gate's byte-compare unit).
type TaskrtConfig struct {
	Workload string
	Scheme   vscc.Scheme
	Devices  int
	Ranks    int
	Size     int // workload decomposition knob (see taskrt.Build)
	Iters    int // sweeps (stencil) or requests (kv)
	Replicas int
}

// TaskrtPoint is one replica's result: scheduler and movement totals,
// the end cycle, the region-state digest, and the injector summary
// when a fault schedule is armed. Every field is deterministic, so a
// point (and the whole sweep) byte-compares across reruns and worker
// counts.
type TaskrtPoint struct {
	Workload   string
	Scheme     string
	Replica    int
	TaskCount  int
	Steals     int
	Doorbells  int
	MovedBytes int64
	Moves      [3]int64 // by vscc.MoveClass
	Cycles     sim.Cycles
	Hash       string
	Faults     string
}

// String renders the point as one stable report line.
func (p TaskrtPoint) String() string {
	s := fmt.Sprintf("taskrt/%s/%s/rep=%02d tasks=%d steals=%d doorbells=%d moved=%d direct=%d cached=%d vdma=%d end=%d hash=%s",
		p.Workload, p.Scheme, p.Replica, p.TaskCount, p.Steals, p.Doorbells,
		p.MovedBytes, p.Moves[vscc.MoveDirect], p.Moves[vscc.MoveCachedMPB], p.Moves[vscc.MoveVDMA],
		p.Cycles, p.Hash)
	if p.Faults != "" {
		s += "\n" + p.Faults
	}
	return s
}

// TaskrtSweep runs cfg.Replicas independent replicas of the workload on
// the worker pool (SetParallelism) and returns the points in replica
// order. Observability, the consistency checker and fault injection
// follow the process-wide harness settings like every other sweep.
func TaskrtSweep(cfg TaskrtConfig) ([]TaskrtPoint, error) {
	if cfg.Devices <= 0 {
		cfg.Devices = 2
	}
	if cfg.Ranks <= 0 {
		cfg.Ranks = 4
	}
	if cfg.Size <= 0 {
		cfg.Size = 4
	}
	if cfg.Iters <= 0 {
		cfg.Iters = 8
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 1
	}
	reps := make([]int, cfg.Replicas)
	for i := range reps {
		reps[i] = i
	}
	return mapPoints(reps, func(rep int) (TaskrtPoint, error) {
		return taskrtPoint(cfg, rep)
	})
}

// taskrtPoint builds and runs one replica.
func taskrtPoint(cfg TaskrtConfig, rep int) (TaskrtPoint, error) {
	k := sim.NewKernel()
	defer k.Release()
	sys, err := vscc.NewSystem(k, sysConfig(vscc.Config{Devices: cfg.Devices, Scheme: cfg.Scheme}))
	if err != nil {
		return TaskrtPoint{}, fmt.Errorf("taskrt %s/%s: %w", cfg.Workload, cfg.Scheme.Key(), err)
	}
	label := fmt.Sprintf("taskrt/%s/%s/rep=%02d", cfg.Workload, cfg.Scheme.Key(), rep)
	sys.Instrument(observe(label, k))
	// Ranks round-robin across devices so argument movement and steals
	// exercise the scheme's fabric path, not just on-chip MPB traffic.
	places := make([]rcce.Place, cfg.Ranks)
	for i := range places {
		places[i] = rcce.Place{Dev: i % cfg.Devices, Core: i / cfg.Devices}
	}
	session, err := sys.NewSessionAt(places)
	if err != nil {
		return TaskrtPoint{}, fmt.Errorf("taskrt %s/%s: %w", cfg.Workload, cfg.Scheme.Key(), err)
	}
	rt := taskrt.New(taskrt.Config{Scheme: cfg.Scheme})
	if err := taskrt.Build(rt, cfg.Workload, cfg.Size, cfg.Iters, cfg.Ranks); err != nil {
		return TaskrtPoint{}, err
	}
	if err := rt.Run(session); err != nil {
		return TaskrtPoint{}, fmt.Errorf("taskrt %s/%s rep %d: %w", cfg.Workload, cfg.Scheme.Key(), rep, err)
	}
	st := rt.Stats()
	pt := TaskrtPoint{
		Workload:   cfg.Workload,
		Scheme:     cfg.Scheme.Key(),
		Replica:    rep,
		TaskCount:  st.Tasks,
		Steals:     st.Steals,
		Doorbells:  st.Doorbells,
		MovedBytes: st.MovedBytes,
		Moves:      st.Moves,
		Cycles:     k.Now(),
		Hash:       rt.StateHash(),
	}
	if sys.Injector != nil {
		pt.Faults = sys.Injector.Summary()
	}
	return pt, nil
}
