GO ?= go

.PHONY: build test check chaos bench fuzz fuzz-smoke lint-metrics

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the CI tier: static analysis, the race-enabled suite (in a
# shuffled order, to flush inter-test ordering dependencies), and a
# one-iteration benchmark smoke pass (keeps the perf harness compiling
# and running without timing anything).
check:
	$(GO) vet ./...
	$(MAKE) lint-metrics
	$(GO) test -race -shuffle=on ./...
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...
	$(MAKE) chaos
	$(MAKE) fuzz-smoke

# chaos is the fault-injection tier: the seeded chaos scenario, the faulty-
# provider regression tests, the breaker/backoff unit tests, the compute
# pool's shutdown/leak and fail-fast checks and the async WPS pool
# saturation and rollback checks, run twice under the race detector in a
# shuffled order so recovery is provably deterministic and free of
# ordering dependencies.
chaos:
	$(GO) test -race -shuffle=on -count=2 -run 'Chaos|Fault|Breaker|Backoff|Suspend|PoolClose|FirstError|LowestIndex|AsyncPool' \
		./internal/loadbalancer ./internal/cloud/... ./internal/broker ./internal/resilience \
		./internal/admission ./internal/sched ./internal/ogc/wps

# lint-metrics forbids raw atomic counters outside internal/metrics —
# operational counters belong in the unified registry so they surface in
# /metrics and the Prometheus exposition.
lint-metrics:
	./tools/lint-metrics.sh

bench:
	$(GO) test -bench=. -benchmem .

fuzz:
	$(GO) test -fuzz FuzzReadFrame -fuzztime 30s ./internal/ws

# fuzz-smoke runs every fuzzer briefly — enough to catch parser
# regressions on fresh mutations in CI without the cost of a long fuzz
# campaign. -fuzz must match exactly one fuzzer per invocation.
fuzz-smoke:
	$(GO) test -fuzz='^FuzzReadFrame$$' -fuzztime 10s ./internal/ws
	$(GO) test -fuzz='^FuzzParseDataInputs$$' -fuzztime 10s ./internal/ogc/wps
	$(GO) test -fuzz='^FuzzParseExecuteDocument$$' -fuzztime 10s ./internal/ogc/wps
	$(GO) test -fuzz='^FuzzParseFlotJSON$$' -fuzztime 10s ./internal/timeseries
	$(GO) test -fuzz='^FuzzReadCSV$$' -fuzztime 10s ./internal/timeseries
	$(GO) test -fuzz='^FuzzRollupVsNaive$$' -fuzztime 10s ./internal/timeseries
	$(GO) test -fuzz='^FuzzTokenBucket$$' -fuzztime 10s ./internal/admission
