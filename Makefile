# Build/test entry points for the vSCC reproduction. `make check` is the
# tier-1 gate: gofmt + build + vet + lint + the fault-injection gate +
# race-enabled tests + a -benchtime=1x pass over every benchmark so
# bitrotted benchmark code fails fast.

GO ?= go

.PHONY: all fmt build vet lint test race bench bench-kernel fault cover soak check

all: check

# Fail listing any file gofmt would rewrite.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-specific analyzers (kernelclock, detorder, goryorder,
# flagdiscipline, tracealloc, simapi), interprocedural over the module
# call graph — see `go run ./cmd/vsccvet -rules` and DESIGN.md. CI runs
# the same suite with -json and archives the report.
lint:
	$(GO) run ./cmd/vsccvet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One iteration of every benchmark: catches compile/runtime bitrot in
# benchmark-only code without paying for a real measurement.
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# Real kernel-throughput measurement (see BENCH_kernel.json), including
# the PDES engine's cross-kernel rate, BT wall-clock, the task
# runtime's workload wall-clock and the per-line WCB, L1 and core MPB
# operations. -count repeats every benchmark so each number comes with
# its spread.
bench-kernel:
	$(GO) test ./internal/sim -run='^$$' -bench='KernelEventThroughput|PDESThroughput' -benchmem -count=5
	$(GO) test -run='^$$' -bench=PDESBT -benchtime=2x -count=5 .
	$(GO) test ./internal/taskrt -run='^$$' -bench=TaskrtWorkloads -benchmem -count=5
	$(GO) test ./internal/mem ./internal/scc -run='^$$' -bench='^Benchmark(WCBWrite|L1|CtxMPB)$$' -benchmem -count=5

# Fault-injection gate: injector unit tests, the fault matrix, the
# recovery tests and the soak's 1x short schedule, all under the race
# detector, a short 16-point chaos campaign over both recovery
# harnesses, then the coverage floors (`cover`).
fault:
	$(GO) test -race -short ./internal/fault
	$(GO) test -race -short -run Fault ./internal/harness .
	$(GO) run ./cmd/chaos -seed 1 -n 16
	@$(MAKE) --no-print-directory cover

# Per-package coverage, one `package:floor` entry each; a floor of 0
# only reports. The floors sit on the packages carrying the
# fault/recovery and admission machinery. fault and sched profile only
# their own package (-coverpkg), and the sched profile merges the
# package tests with the root multi-tenant integration test; chaos runs
# its short campaign. A failing test fails the target. CI calls this
# target for its coverage table.
COVERAGE = fault:80 pcie:80 host:0 vscc:0 sched:80 lint:80 taskrt:80 chaos:80

cover:
	@for e in $(COVERAGE); do \
		p=$${e%%:*}; floor=$${e##*:}; args=./internal/$$p; \
		case $$p in \
		fault) args="-coverpkg=$$args $$args" ;; \
		sched) args="-coverpkg=$$args $$args ." ;; \
		chaos) args="-short $$args" ;; \
		esac; \
		out=$$($(GO) test -coverprofile=cover-$$p.out $$args 2>&1) || { echo "$$out"; exit 1; }; \
		pct=$$($(GO) tool cover -func=cover-$$p.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
		rm -f cover-$$p.out; \
		if [ "$$floor" = 0 ]; then echo "internal/$$p coverage: $$pct% floor: -"; continue; fi; \
		echo "internal/$$p coverage: $$pct% floor: $$floor%"; \
		awk -v p="$$pct" -v f="$$floor" 'BEGIN { exit (p+0 < f+0) ? 1 : 0 }' || \
			{ echo "internal/$$p coverage below the $$floor% floor"; exit 1; }; \
	done

# Full 10k-transfer fault soak (the short 1x schedule runs in `fault`).
soak:
	$(GO) test -run FaultSoak -v ./internal/harness

check: fmt build vet lint fault race bench
