# Convenience targets for the SRDA reproduction.

GO ?= go

.PHONY: all check build perfbench-build fmt test vet lint lint-budget bench-gate race cover bench fuzz repro repro-paper report-smoke bench-record trace-smoke shard-smoke online-smoke slo-smoke examples clean

all: check

# The default gate: compile, formatting, static checks (vet + the
# project's own determinism-contract analyzers), unit tests, and the race
# detector (internal/serve is concurrent; run it racy by default).
check: build perfbench-build fmt vet lint test race

build:
	$(GO) build ./...

# perfbench is its own module compiled against internal/*; building and
# vetting it here, as CI does, makes an internal API change that breaks
# the benchmark fail locally.
perfbench-build:
	cd perfbench && $(GO) build ./... && $(GO) vet ./...

# Every Go file, lint corpora included, must be gofmt-clean.
fmt:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

# The srdalint suite (see doc/LINTING.md): goroutine discipline, float
# comparisons, seeded randomness, parallel-twin coverage, hot-loop
# allocations, wall-clock reads, dropped errors, raw logging outside the
# structured obs.Logger, map-iteration determinism, lock hygiene, and
# context-flow discipline — the hot-path analyzers chase findings through
# the interprocedural call graph.  Exit 1 = findings.  The second step is
# the compiler gate: kernel escape-analysis and bounds-check facts must
# stay within the checked-in lint_budget.json.
lint:
	$(GO) run ./cmd/srdalint ./...
	$(GO) run ./cmd/srdalint -compiler-gate

# Re-baseline the compiler gate after an intentional kernel change.
# Review the lint_budget.json diff before committing it.
lint-budget:
	$(GO) run ./cmd/srdalint -compiler-gate -update-budget

# Benchmark regression gate: time the fixed-shape kernels now and fail if
# any is >10% slower than the checked-in BENCH_0.json baseline.
bench-gate:
	$(eval BG := $(shell mktemp -d))
	$(GO) run ./cmd/srdabench -json-out $(BG)/bench.json
	$(GO) run ./cmd/srdareport benchdiff -tol 0.10 BENCH_0.json $(BG)/bench.json
	rm -rf $(BG)

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run 'Coalesc|Queue|Close|Concurrent' ./internal/serve
	$(GO) test -race -count=5 -run 'Lockstep|Bitwise|Twin|Workers' ./internal/solver ./internal/regress ./internal/sparse ./internal/decomp

cover:
	$(GO) test ./... -coverprofile=cover.out && $(GO) tool cover -func=cover.out | tail -1

bench:
	$(GO) test -bench=. -benchmem ./...

# Active fuzzing of the kernel oracles (the blocked parallel Cholesky
# against the unblocked sweep among them), the model and DiskCSR
# decoders, the predict/observe body scanner, the observe edge against
# per-row Observe, router peek and whole routed tier against
# encoding/json, and the scraped-metrics parser and
# SLO config validator
# (the same targets run as plain regression tests from the checked-in
# corpus during `make test`).
fuzz:
	$(GO) test -fuzz=FuzzGemmShapes -fuzztime=30s ./internal/blas
	$(GO) test -fuzz=FuzzCSRMulVec -fuzztime=30s ./internal/sparse
	$(GO) test -run='^$$' -fuzz='^FuzzParCholesky$$' -fuzztime=30s ./internal/decomp
	$(GO) test -run='^$$' -fuzz='^FuzzOpenDiskCSR$$' -fuzztime=30s ./internal/sparse
	$(GO) test -fuzz=FuzzLoad -fuzztime=30s ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzScanPredict$$' -fuzztime=30s ./internal/serve
	$(GO) test -run='^$$' -fuzz='^FuzzScanObserve$$' -fuzztime=30s ./internal/serve
	$(GO) test -run='^$$' -fuzz='^FuzzObserveRequest$$' -fuzztime=30s ./internal/serve
	$(GO) test -run='^$$' -fuzz='^FuzzPeekPredict$$' -fuzztime=30s ./internal/serve
	$(GO) test -run='^$$' -fuzz='^FuzzRoutePredict$$' -fuzztime=30s ./internal/router
	$(GO) test -run='^$$' -fuzz='^FuzzParsePrometheus$$' -fuzztime=30s ./internal/obs
	$(GO) test -run='^$$' -fuzz='^FuzzValidateSLOConfig$$' -fuzztime=30s ./internal/telemetry

# Regenerate every table and figure at laptop scale (minutes).
repro:
	$(GO) run ./cmd/srdabench -exp all -scale small -splits 5

# Full paper-sized datasets (slow; hours for the dense baselines).
repro-paper:
	$(GO) run ./cmd/srdabench -exp all -scale paper -splits 20

# End-to-end observability smoke: generate a corpus, train with a JSON
# run report, and hold the report to its schema with srdareport (see
# doc/OBSERVABILITY.md).  Runs in CI on every push.
report-smoke:
	$(eval SMOKE := $(shell mktemp -d))
	$(GO) run ./cmd/srdagen -dataset news -out $(SMOKE)/smoke -seed 7 -classes 3 -docs 240 -vocab 900 -split 0.7
	$(GO) run ./cmd/srdatrain -train $(SMOKE)/smoke.train.svm -test $(SMOKE)/smoke.test.svm -solver lsqr -report $(SMOKE)/run.json
	$(GO) run ./cmd/srdareport $(SMOKE)/run.json
	rm -rf $(SMOKE)

# Record one micro-benchmark trajectory point: time the fixed-shape
# kernels (PredictBatch, ParGemm, FitLSQR) and pin the report as
# BENCH_<k>.json with k one past the highest existing index.  When a
# previous point exists, print the benchdiff against it (informational
# here; CI gates on `srdareport benchdiff` exiting 1 at >10% slowdowns).
bench-record:
	@k=0; while [ -f BENCH_$$k.json ]; do k=$$((k+1)); done; \
	$(GO) run ./cmd/srdabench -json-out BENCH_$$k.json && \
	if [ $$k -gt 0 ]; then $(GO) run ./cmd/srdareport benchdiff BENCH_$$((k-1)).json BENCH_$$k.json || true; fi

# Tracing acceptance smoke: the serving path under 100+ concurrent
# requests must export a request→batch→kernel Chrome trace, quantile
# gauges on /metrics, and flush both artifacts on SIGTERM.  The
# cross-process leg runs a real router + worker pair, merges their
# per-process trace files with `srdareport tracemerge` into one
# timeline under a single TraceID, and validates the p99-breach flight
# bundle against doc/flight_schema.json.  Runs the end-to-end trace
# tests fresh (no cache); `make race` covers them racy.
trace-smoke:
	$(GO) test -run 'TestTraceSmoke|TestConcurrentRequestTracing|TestEndToEndTraceAll|TestTwoProcessTraceMergeAndFlight' -count=1 -v ./cmd/srdaserve ./internal/serve
	$(GO) test -run 'TestTracemergeGolden' -count=1 -v ./cmd/srdareport

# Sharded-tier acceptance smoke (see doc/SHARDING.md): -role=all spawns
# a router plus two co-located workers sharing one registry, publishes
# three tenant models, and asserts routed predictions, quota/shed
# metrics, and hash-ring stability when health checks remove a
# replica.  The router and registry race tests run fresh alongside it;
# `make race` covers the full packages racy.
shard-smoke:
	$(GO) test -run 'TestShardSmoke|TestTeardownOnError' -count=1 -v ./cmd/srdaserve
	$(GO) test -run 'TestColocatedRoutingQuotasAndDrain|TestConcurrentPublishEvictPredict' -count=1 -race -v ./internal/router ./internal/registry

# Train-while-serving acceptance smoke (see doc/ONLINE.md): a worker
# started with -online streams labeled samples through /v1/observe, the
# co-located trainer refits and publishes into the live registry,
# predictions answer from the new version, and a poisoned stream forces
# a holdout regression whose rollback shows up on /metrics.  The
# streaming↔batch bitwise-equivalence golden test and the
# publish-while-predict race test run fresh alongside it.
online-smoke:
	$(GO) test -run 'TestOnlineSmoke' -count=1 -v ./cmd/srdaserve
	$(GO) test -run 'TestStreamingMatchesBatch' -count=1 -v .
	$(GO) test -run 'TestPublishWhilePredict' -count=1 -race -v ./internal/online

# SLO burn-rate acceptance smoke (see doc/OBSERVABILITY.md): a real
# router process in front of a real worker process, the worker killed
# mid-traffic to induce a 5xx burst, and the availability alert driven
# through pending → firing → resolved with a schema-valid slo_burn
# flight bundle on disk.  Wall-clock burn windows make this a
# multi-second test, so it is gated behind SRDA_SLO_SMOKE and runs
# fresh (no cache).  The frozen-clock federation/SLO lifecycle tests
# and the fleet-view golden run alongside it.
slo-smoke:
	SRDA_SLO_SMOKE=1 $(GO) test -run 'TestSLOSmoke' -count=1 -v ./cmd/srdaserve
	$(GO) test -run 'TestSLOLifecycle|TestClusterMetricsGolden|TestClusterSnapshotGolden|TestFederatorSLOIntegration' -count=1 -v ./internal/telemetry
	$(GO) test -run 'TestTopOnceGolden' -count=1 -v ./cmd/srdareport

examples:
	@for d in examples/*/ ; do echo "== $$d"; $(GO) run ./$$d || exit 1; done

clean:
	rm -f cover.out test_output.txt bench_output.txt
