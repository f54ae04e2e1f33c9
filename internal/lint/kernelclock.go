package lint

import (
	"go/ast"
	"go/token"
)

// KernelClockAnalyzer forbids wall-clock time, unseeded process-global
// randomness and raw Go concurrency inside the model packages. The
// simulation contract (DESIGN.md §6, PR 1–2) is that every cycle of
// simulated time and every interleaving decision flows through the
// deterministic kernel in internal/sim: a single time.Now, goroutine,
// channel or coroutine (iter.Pull, iter.Pull2) in a model package breaks
// byte-identical parallel sweeps.
// Importing package time at all is a finding in a model package — even
// time.Time/Duration as plain data invites wall-clock coupling, and no
// model code needs it.
//
// internal/sim itself — the sanctioned channel — is audited in a
// relaxed mode: the PDES engine legitimately runs worker goroutines
// with sync and channels, and every process on an iter.Pull coroutine,
// but the wall clock and math/rand stay
// forbidden there too, so sub-kernel code cannot smuggle real time in
// through the engine.
//
// Test files are exempt — tests may legitimately use wall-clock
// timeouts and goroutines to drive the simulator from outside.
//
// Beyond the direct scan, the rule is transitive: a call from a model
// package into any module function — however many helper hops or
// interface dispatches away — that reaches a wall-clock read, a
// math/rand use, or raw concurrency outside the sanctioned engine
// infrastructure (internal/sim, internal/trace, internal/harness) is
// reported at the model-package call site, with the offending call
// chain in the diagnostic. Callees inside the audited packages are not
// re-reported at call sites: the direct scan already flags them at the
// definition, and their own outgoing escapes are flagged at their own
// call sites. Interface dispatch is over-approximated by name and
// arity (see callgraph.go), so an infeasible chain is suppressible
// with a proof.
func KernelClockAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "kernelclock",
		Doc:  "model packages take time and concurrency (goroutines, channels, select, iter.Pull coroutines) from internal/sim only; the engine itself never takes the wall clock",
		Applies: func(p string) bool {
			return pkgPathIn(p, modelPackages...) || pkgPathIn(p, enginePackages...)
		},
		Run: runKernelClock,
	}
}

// forbiddenTimeFuncs are the wall-clock entry points of package time.
// Pure data like time.Duration arithmetic would be deterministic, but no
// model package needs it, so any listed selector is reported.
var forbiddenTimeFuncs = map[string]bool{
	"Now": true, "Sleep": true, "After": true, "AfterFunc": true,
	"Tick": true, "NewTimer": true, "NewTicker": true,
	"Since": true, "Until": true,
}

// coroutineFuncs are the entry points of package iter that start a
// coroutine: raw concurrency, like a go statement.
var coroutineFuncs = map[string]bool{"Pull": true, "Pull2": true}

func runKernelClock(pass *Pass) {
	engine := pkgPathIn(pass.Pkg.Path, enginePackages...)
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		imports := importTable(f)
		for _, imp := range f.Imports {
			switch path := importPathOf(imp); path {
			case "time":
				if engine {
					pass.Reportf(imp.Pos(), "import of time in the simulation engine: the kernel IS the clock; worker coordination may use sync and channels, but simulated time advances only through the event queue")
				} else {
					pass.Reportf(imp.Pos(), "import of time in a model package: even time.Time/Duration data invites wall-clock coupling; simulated time is sim.Cycles on the kernel clock")
				}
			case "math/rand", "math/rand/v2":
				pass.Reportf(imp.Pos(), "import of %s: unseeded process-global randomness breaks deterministic replay; derive randomness from an explicitly seeded source threaded through the harness", path)
			case "sync", "sync/atomic":
				if !engine {
					pass.Reportf(imp.Pos(), "import of %s in a model package: synchronization must use internal/sim primitives (Cond, Queue, Gate), which keep the event order deterministic", path)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if id, ok := n.X.(*ast.Ident); ok && imports[id.Name] == "time" && forbiddenTimeFuncs[n.Sel.Name] {
					pass.Reportf(n.Pos(), "time.%s: simulated time is the kernel clock (sim.Proc.Delay / Kernel.Now), never the wall clock", n.Sel.Name)
				} else if ok && imports[id.Name] == "iter" && coroutineFuncs[n.Sel.Name] && !engine {
					pass.Reportf(n.Pos(), "iter.%s in a model package: a coroutine is raw concurrency; spawn simulated processes with sim.Kernel.Spawn, which runs each on the engine's own coroutine", n.Sel.Name)
				}
			case *ast.CallExpr:
				checkTransitiveClock(pass, imports, n)
			case *ast.GoStmt:
				if !engine {
					pass.Reportf(n.Pos(), "raw goroutine in a model package: spawn simulated processes with sim.Kernel.Spawn/SpawnDaemon so the kernel serializes execution deterministically")
				}
			case *ast.ChanType:
				if !engine {
					pass.Reportf(n.Pos(), "channel type in a model package: cross-process signalling must use sim.Cond/sim.Queue, which wake processes in deterministic event order")
				}
			case *ast.SelectStmt:
				if !engine {
					pass.Reportf(n.Pos(), "select statement in a model package: nondeterministic case choice; block on sim primitives instead")
				}
			case *ast.SendStmt:
				if !engine {
					pass.Reportf(n.Pos(), "channel send in a model package: use sim.Queue.Push / sim.Cond.Broadcast")
				}
			case *ast.UnaryExpr:
				if n.Op == token.ARROW && !engine {
					pass.Reportf(n.Pos(), "channel receive in a model package: use sim.Queue.Pop / sim.Cond.Wait")
				}
			}
			return true
		})
	}
}

// checkTransitiveClock reports a call site whose resolved callee —
// outside the directly audited packages — transitively reaches the wall
// clock, math/rand, or unsanctioned raw concurrency. One report per
// call site, first witnessing candidate wins (candidate order is
// deterministic).
func checkTransitiveClock(pass *Pass, imports map[string]string, call *ast.CallExpr) {
	cg := pass.CallGraph()
	callees, _ := cg.Resolve(pass.Pkg, imports, call)
	for _, c := range callees {
		if pkgPathIn(c.Pkg.Path, modelPackages...) || pkgPathIn(c.Pkg.Path, enginePackages...) {
			continue // audited directly; escapes flagged at its own sites
		}
		w := cg.ClockWitness(c)
		if w == nil {
			continue
		}
		if w.Concurrency {
			pass.ReportChain(call.Pos(), w.Chain,
				"call reaches raw concurrency (%s) outside the engine: %s; route the interleaving through internal/sim so reruns stay byte-identical", w.What, FormatChain(w.Chain))
		} else {
			pass.ReportChain(call.Pos(), w.Chain,
				"call reaches %s: %s; simulated time and randomness must come from the kernel clock and seeded sources", w.What, FormatChain(w.Chain))
		}
		return
	}
}

func importPathOf(imp *ast.ImportSpec) string {
	p := imp.Path.Value
	if len(p) >= 2 {
		p = p[1 : len(p)-1]
	}
	return p
}
