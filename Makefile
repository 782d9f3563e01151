GO ?= go

.PHONY: all build test race vet fuzz bench bench-micro bench-record bench-guard profile-kernel trace-demo check clean serve smoke-serve smoke-chaos load

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Everything under the race detector: the parallel sweep engine spans
# experiments, resilience, telemetry and the CLIs.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Short fuzzing smoke over the trace parsers, the partition-finder
# differential oracle, the scheduler-memo exactness oracle, the
# node-set L_PF against its per-node reference and the run request
# path (decode, validate, build, bounded run); CI-friendly budget.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run NONE -fuzz FuzzReadSWF -fuzztime $(FUZZTIME) ./internal/workload
	$(GO) test -run NONE -fuzz FuzzReadCSV -fuzztime $(FUZZTIME) ./internal/failure
	$(GO) test -run NONE -fuzz FuzzFinderEquivalence -fuzztime $(FUZZTIME) ./internal/partition/oracle
	$(GO) test -run NONE -fuzz FuzzSnapshotRoundTrip -fuzztime $(FUZZTIME) ./internal/snapshot
	$(GO) test -run NONE -fuzz FuzzScheduleMatchesFreshScheduler -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run NONE -fuzz FuzzSetLPFMatchesPartitionFailProb -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run NONE -fuzz FuzzRunConfigGate -fuzztime $(FUZZTIME) ./internal/build

# The scheduling-simulation service on :8080 (override: make serve
# SERVE_FLAGS="-addr :9090 -state runs.jsonl").
SERVE_FLAGS ?=
serve:
	$(GO) run ./cmd/bgserve $(SERVE_FLAGS)

# Boot a real bgserve process, run the lifecycle smoke against it
# (healthz, run, cache hit, metrics, SIGTERM drain), and require a
# clean exit. Same script CI runs.
smoke-serve:
	./scripts/smoke-serve.sh

# Chaos soak: bgserve with deterministic fault injection, the bgload
# fleet holding its SLOs through the faults, a kill -9 mid-soak, and a
# journal-recovery check on restart. Same script CI runs; reproduce a
# failure with CHAOS_SEED=N make smoke-chaos.
smoke-chaos:
	./scripts/smoke-chaos.sh

# Self-contained SLO soak (in-process server + chaos): make load
# LOAD_FLAGS="-chaos-seed 7 -chaos-level 0.4 -requests 200".
LOAD_FLAGS ?=
load:
	$(GO) run ./cmd/bgload $(LOAD_FLAGS)

# Full benchmark sweep (figure regeneration + ablations); minutes.
bench:
	$(GO) test -run NONE -bench . -benchtime 1x .

# Just the scheduling-cost microbenchmarks recorded in EXPERIMENTS.md.
bench-micro:
	$(GO) test -run NONE -bench 'BenchmarkSchedulerDecision|BenchmarkFinderAlgorithms' .

# Bench-history pipeline (bench/BENCH_NNNN.json, highest = baseline).
# bench-record appends a new committed snapshot; bench-guard compares a
# fresh run against the baseline and fails on >25% regressions — the
# same guard CI runs.
bench-record:
	./scripts/bench-history.sh record

bench-guard:
	./scripts/bench-history.sh compare

# CPU + allocation profile pair for the kernel steady-state benchmark.
# Inspect with `go tool pprof bgsched.test cpu.kernel.pprof` (or
# mem.kernel.pprof with -sample_index=alloc_objects for the allocation
# view; the alloc profile records everything including untimed setup,
# unlike the benchmark's allocs/op).
profile-kernel:
	$(GO) test -run NONE -bench BenchmarkKernelSteadyState -benchtime 20000x \
		-cpuprofile cpu.kernel.pprof -memprofile mem.kernel.pprof .

# Render the six-point golden sweep's causal traces into one
# Chrome-loadable trace (open chrome://tracing or https://ui.perfetto.dev
# and load trace-demo.json).
trace-demo:
	$(GO) run ./cmd/bgsweep -fig golden -trace-dir trace-demo
	cat trace-demo/*.trace.ndjson | $(GO) run ./cmd/bgtrace spans -in - -chrome trace-demo.json
	@echo "wrote trace-demo.json ($$(wc -c < trace-demo.json) bytes); load it in chrome://tracing or ui.perfetto.dev"

check: build vet test race fuzz

clean:
	$(GO) clean ./...
	rm -f cpu.kernel.pprof mem.kernel.pprof bgsched.test
