GO ?= go

.PHONY: build vet lint test race test-distributed test-sweep test-chaos test-store test-loadgen fuzz-smoke bench-kernels bench-sweep bench bench-trajectory bench-compare ci docs-lint docs-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Determinism & serve-invariant linter suite: six project-specific
# analyzers (detrand seedderive maporder errdrop bodydrain atomicmix) over
# every package, plus the godoc and markdown-link contracts. Exits non-zero
# on any finding; see docs/static-analysis.md for the invariants and the
# //lint:allow escape hatch.
lint:
	$(GO) run ./cmd/tqsimlint ./...

# Godoc contract: every exported symbol of the public tqsim package carries
# a doc comment (determinism guarantees included — see docs/).
# (Also enforced as part of `make lint`; repolint remains as a thin alias.)
docs-lint:
	$(GO) run ./cmd/repolint -godoc .

# Docs contract: every relative markdown link resolves, and every example
# program still builds against the current API.
docs-check:
	$(GO) run ./cmd/repolint -links
	$(GO) build ./examples/...

test:
	$(GO) test ./...

# Race-check everything: the statevec worker pool, the parallel tree
# executor (on every registered backend via the conformance suite), the
# tableau tree runner, and the parallel-shot baseline all carry
# concurrency.
race:
	$(GO) test -race ./...

# Distributed serving suite under the race detector: coordinator + 3
# in-process workers (merge byte-identity, kill-one-mid-job failover,
# planner placement, local fallback), the BatchSeed partition property
# test, and the serve-layer reliability regressions (LRU plan cache,
# graceful drain, request cancellation).
test-distributed:
	$(GO) test -race ./internal/serve -run 'TestDistributed|TestShard|TestGracefulDrain|TestCancelled|TestPlanCacheLRU'

# Sweep-engine suite under the race detector: the determinism property
# tests (RunSweep per-point histograms byte-identical to standalone runs at
# derived seeds, reuse on/off, serial/parallel), the /v1/sweeps endpoint
# and streaming suites, and the distributed sweep tests (1-3 workers,
# failover, stalled-lease timeout).
test-sweep:
	$(GO) test -race . -run 'TestSweep'
	$(GO) test -race ./internal/sweep
	$(GO) test -race ./internal/serve -run 'TestSweep|TestDistributedSweep|TestLeaseTimeout|TestDrainWaitSignals|TestStreamingHeaderEmit'

# Chaos suite under the race detector: the seeded fault-plan grid (dropped
# connections, 5xx bursts, Retry-After 503s, kill-mid-lease, corrupted
# payloads, join/leave churn) whose invariant is byte-identical merged
# histograms versus the fault-free run, plus the elastic-membership,
# breaker, revival, Retry-After and drain-in-flight regressions, and the
# faultinject determinism suite.
test-chaos:
	$(GO) test -race ./internal/faultinject
	$(GO) test -race ./internal/serve -run 'TestChaos|TestLiveness|TestBreaker|TestWorkerJoin|TestWorkerRevival|TestRetryAfter|TestCoordinatorDrain|TestWorkerDrain'

# Result & snapshot store suite under the race detector: the
# content-addressed store (memory LRU, disk persistence, crash-file rescan,
# byte caps), the structural circuit digest, the cross-job snapshot cache,
# and the serve-layer replay-identity conformance grid (job/sweep/
# distributed × stream shapes, restart-with-store-dir, cross-job snapshot
# hits) plus the cache-correctness regressions (circuitHash unitary
# collision, queued-client cancellation, plan-cache counter algebra).
test-store:
	$(GO) test -race ./internal/resultstore ./internal/circuit ./internal/core -run 'TestDigest|TestPrefixDigests|TestForPlan|TestEviction|Test.*LRU|TestPut|TestDisk|TestRescan|TestReopen|TestVanished|TestConcurrent'
	$(GO) test -race ./internal/serve -run 'TestResultStore|TestSnapshotCache|TestSweepUsesSharedSnapshotCache|TestCircuitHashDistinguishesUnitaries|TestQueuedClientDisconnectCancels|TestPlanCacheStatsConsistentUnderEviction'

# Load/capacity harness suite under the race detector: the seeded
# determinism contracts (byte-identical arrival schedule and request
# sequence, including concurrent generation), the latency-histogram
# quantile-accuracy and merge property tests, the saturation-knee search
# against a synthetic queue with analytic capacity, the live end-to-end
# run against an httptest tqsimd with /v1/stats polled concurrently, and
# the server-side latency accounting.
test-loadgen:
	$(GO) test -race ./internal/loadgen ./internal/metrics
	$(GO) test -race ./internal/serve -run 'TestStatsLatency'

# Short fuzz smoke: the QASM parser/round-trip fuzzer plus its committed
# regression corpus. Go runs one fuzz target per invocation.
fuzz-smoke:
	$(GO) test ./internal/qasm -run xxx -fuzz FuzzParseQASM -fuzztime 10s

# Kernel microbenchmarks: per-gate-class amps/s across widths and qubit
# positions. Track these across PRs for hot-path regressions.
bench-kernels:
	$(GO) test -run xxx -bench 'BenchmarkKernels_' -benchtime 1s .

# Cross-point reuse benchmark: the same noise-grid sweep with prefix reuse
# on vs off; the reported gateops/sweep ratio is the work reduction (the
# run errors if reuse stops reducing work).
bench-sweep:
	$(GO) test -run xxx -bench BenchmarkSweepReuse -benchtime 1x -v .

# Full figure/table benchmark sweep (slow).
bench:
	$(GO) test -run xxx -bench . -benchtime 1x .

# Performance trajectory: measure kernels, sweep reuse, serve quantiles
# and the saturation knee; write BENCH_$(PR).json and gate against the
# highest-numbered committed BENCH_*.json with noise-tolerant thresholds
# (exit 1 on regression). Bump PR per stacked change: make bench-trajectory PR=9
PR ?= 12
bench-trajectory:
	$(GO) run ./cmd/benchreport -pr $(PR) -check -against auto

# Benchstat-style before/after table of two committed trajectory points
# (per-kernel amps/s ratios plus the sweep/serve/knee metrics). Defaults to
# the two highest-numbered BENCH_*.json: make bench-compare, or
# make bench-compare A=BENCH_5.json B=BENCH_9.json
A ?= $(shell ls BENCH_*.json 2>/dev/null | sort -t_ -k2 -n | tail -2 | head -1)
B ?= $(shell ls BENCH_*.json 2>/dev/null | sort -t_ -k2 -n | tail -1)
bench-compare:
	$(GO) run ./cmd/benchreport -diff $(A) $(B)

ci: build vet lint test race test-distributed test-sweep test-chaos test-store test-loadgen fuzz-smoke bench-sweep bench-trajectory docs-check
