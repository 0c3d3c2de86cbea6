# STIR build targets. `make verify` is the full pre-merge gate: tier-1
# (build + tests) plus vet, a race pass over the instrumented packages
# (where the obs middleware and crawl/pipeline counters run concurrently),
# the chaos suites and the benchmark's own tests.
# `make chaos` replays the seeded fault-injection suite under -race.
# `make bench` runs the end-to-end benchmark declared in BENCHMARK.json.

GO ?= go

# Fixed fault schedule for reproducible chaos runs (see internal/resilience/fault).
CHAOS_SEED ?= 2026

# The workloads BENCHMARK.json declares, each run by perfbench/run.sh.
BENCH_WORKLOADS = firehose geo-dense cluster batch

.PHONY: build test vet race verify chaos cluster-chaos partition-chaos disk-chaos crash load bench bench-test bench-obs bench-stream bench-cluster bench-geocode profile

# Every chaos target reads the one seed variable, STIR_FAULT_SEED.
chaos cluster-chaos partition-chaos disk-chaos crash: export STIR_FAULT_SEED = $(CHAOS_SEED)

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Race-check the packages that share metric registries across goroutines.
race:
	$(GO) test -race ./internal/obs/... ./internal/resilience/... ./internal/twitter/... ./internal/geocode/... ./internal/geofast/... ./internal/pipeline/... ./internal/storage/... ./internal/ratelimit/... ./internal/stream/... ./internal/overload/... ./internal/daemon/... ./internal/logx ./internal/leaktest ./internal/cluster/... ./cmd/stir/...

verify: build vet test race crash cluster-chaos partition-chaos disk-chaos bench-test

# Run the deterministic fault-injection suite (retry/breaker under injected
# faults, degraded pipeline runs, flaky-crawl convergence) with the race
# detector and a fixed seed, so a failure replays bit-for-bit.
chaos: crash cluster-chaos partition-chaos disk-chaos
	$(GO) test -race -count=1 -run 'Chaos|Fault|Inject|Quarantine|ContinueOnError|CrashMidUser' ./internal/resilience/... ./internal/twitter/... ./internal/pipeline/... ./internal/stream/... ./internal/overload/...

# Kill-a-worker cluster chaos: a seeded run destroys a worker mid-ingest
# (listener gone, memory gone, checkpoint torn by a fault-VFS power cut),
# keeps streaming through the outage, rejoins a replacement on the same
# store, and verifies the merged cluster grouping converges byte-identically
# to the batch pipeline with every deferral/replay accounted in metrics.
cluster-chaos:
	$(GO) test -race -count=1 -run 'TestClusterChaos|TestClusterCrashRecovery|TestClusterReplicatedIngest|TestClusterScatterPartialDegradation' ./internal/cluster/

# Network-partition chaos: a seeded asymmetric partition isolates a worker
# (its requests arrive, its responses die), the failure detector walks it
# alive -> suspect -> down on a manual clock, auto-failover recovers it from
# checkpoint + journal, a zombie hop with the pre-failover epoch is fenced,
# and after heal/rejoin the merged groupings converge byte-identically to
# batch — no acked write lost, no stale-epoch write applied.
partition-chaos:
	$(GO) test -race -count=1 -run 'TestClusterPartitionChaos|TestHealthDetector|TestHealthAutoFailover|TestStaleRouterFenced' ./internal/cluster/

# Resource-exhaustion chaos: a seeded run fills one worker's disk mid-stream
# (ENOSPC via the fault VFS), watches checkpoints defer and the store degrade
# to read-only, keeps streaming while the router journals the degraded
# worker's share (reads stay scattered, readyz down / liveness up), then
# frees the space and verifies heal + journal replay converge byte-identically
# to batch with zero evictions — plus the ENOSPC/budget unit suites.
disk-chaos:
	$(GO) test -race -count=1 -run 'TestDiskExhaustionChaosConverges|TestDegradedAutoFailoverOnlyWhenEvicting' ./internal/cluster/
	$(GO) test -race -count=1 -run 'TestCheckpointDefersOnDiskFullAndHeals' ./internal/stream/
	$(GO) test -race -count=1 -run 'ENOSPC|Watermark|NoSpace|TestHardTripHealsViaCompaction' ./internal/storage/...

# Power-cut chaos for the durable store: a seeded workload is crashed at
# every filesystem mutation boundary (writes, fsyncs, dir fsyncs, renames —
# including mid-compaction), rebooted and verified: no acked-synced write is
# ever lost, damage is salvaged and quarantined, the log verifies clean.
crash:
	$(GO) test -race -count=1 -run 'TestPowerCut|TestBatchAtomicUnderInjectedCrash|TestSalvage|TestRepair|TestSegmentRollSurvivesCrash' ./internal/storage/...

# Drive the seeded overload spike (5x load against an AIMD-limited server
# with injected latency) and check the admission-control invariants: bounded
# admitted p99, probes never shed, sheds fully accounted, goodput recovery.
load:
	$(GO) test -race -count=1 -run TestOverloadChaos ./internal/overload/

# End-to-end benchmark: each workload's metrics, printed by name and unit.
bench:
	for w in $(BENCH_WORKLOADS); do bash perfbench/run.sh --workload $$w || exit 1; done

# The benchmark's own tests (smoke runs and its correctness gate, about a
# minute), so a break in any API the benchmark uses fails `make verify`.
bench-test:
	cd perfbench && $(GO) test -count=1 .

# Prove the observability layer stays cheap on the E1 funnel path.
bench-obs:
	$(GO) test -run xxx -bench BenchmarkObsOverhead -benchtime 10x .

# Sustained live-ingestion throughput (the subsystem's floor is 100k
# tweets/sec on 4 shards with zero drops).
bench-stream:
	$(GO) test -run xxx -bench BenchmarkStreamIngest -benchtime 2s ./internal/stream/

# Routed-cluster micro-benchmarks: ingest throughput through the router's journal+forward path and scatter-gather
# latency, each at 1, 2 and 4 workers.
bench-cluster:
	$(GO) test -run xxx -bench BenchmarkClusterIngest -benchtime 1s ./internal/cluster/
	$(GO) test -run xxx -bench BenchmarkClusterScatterGroups -benchtime 300x ./internal/cluster/

# Embedded reverse-geocoding micro-benchmarks: the compiled cell grid's bulk and single-point hot paths against the R-tree
# walk it replaces. Floor: >=10M points/sec, 0 allocs/op on ResolveBulk.
bench-geocode:
	$(GO) test -run xxx -bench 'BenchmarkGeofast|BenchmarkRTree' -benchtime 2s ./internal/geofast/

# Offline continuous-profiling capture: run the sustained ingestion benchmark
# under the CPU and heap profilers and drop the profiles in profiles/ for
# `go tool pprof`. The live equivalents are served by every daemon at
# /debug/pprof/ (e.g. /debug/pprof/profile?seconds=10).
profile:
	mkdir -p profiles
	$(GO) test -run xxx -bench BenchmarkStreamIngest -benchtime 2s \
		-cpuprofile profiles/cpu.out -memprofile profiles/heap.out \
		-o profiles/stream.test ./internal/stream/
