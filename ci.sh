#!/bin/sh
# CI check tier: static analysis + race-enabled tests, as `make check`
# but with no make dependency.
set -eu
cd "$(dirname "$0")"
go vet ./...
# Grep lint: operational counters must live in the unified metrics
# registry, not as raw atomics scattered across packages.
./tools/lint-metrics.sh
go test -race -shuffle=on ./...
# Benchmark smoke tier: every benchmark must still run (one iteration);
# catches bit-rot in the perf harness without timing anything.
go test -run='^$' -bench=. -benchtime=1x ./...
# Chaos tier: seeded fault-injection scenario + resilience regression
# tests + the compute pool's shutdown/leak and fail-fast checks + the
# async WPS pool saturation and rollback checks, twice under race in
# shuffled order — recovery must be deterministic and data-race free.
go test -race -shuffle=on -count=2 -run 'Chaos|Fault|Breaker|Backoff|Suspend|PoolClose|FirstError|LowestIndex|AsyncPool' \
	./internal/loadbalancer ./internal/cloud/... ./internal/broker ./internal/resilience \
	./internal/admission ./internal/sched ./internal/ogc/wps
# Fuzz smoke tier: run every fuzzer briefly on fresh mutations — catches
# parser regressions the seeded corpus alone would miss. One -fuzz
# pattern per invocation (go test requires it to match exactly one).
go test -fuzz='^FuzzReadFrame$' -fuzztime 10s ./internal/ws
go test -fuzz='^FuzzParseDataInputs$' -fuzztime 10s ./internal/ogc/wps
go test -fuzz='^FuzzParseExecuteDocument$' -fuzztime 10s ./internal/ogc/wps
go test -fuzz='^FuzzParseFlotJSON$' -fuzztime 10s ./internal/timeseries
go test -fuzz='^FuzzReadCSV$' -fuzztime 10s ./internal/timeseries
# Differential fuzzer: the rollup index must agree with the naive scan
# for arbitrary ingest orders, cadences and query windows.
go test -fuzz='^FuzzRollupVsNaive$' -fuzztime 10s ./internal/timeseries
# Token-bucket invariant fuzzer: client table stays LRU-bounded and
# every bucket stays within [0, burst] for arbitrary op/advance streams.
go test -fuzz='^FuzzTokenBucket$' -fuzztime 10s ./internal/admission
