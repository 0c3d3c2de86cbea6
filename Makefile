# STIR build targets. `make verify` is the full pre-merge gate: tier-1
# (build + tests) plus vet, a race pass over the instrumented packages
# (where the obs middleware and crawl/pipeline counters run concurrently),
# the chaos suites, a short fuzzing pass and the benchmark's own tests.
# `make chaos` replays the seeded fault-injection suite under -race.
# `make bench` runs the end-to-end benchmark declared in BENCHMARK.json.

GO ?= go

# Fixed fault schedule for reproducible chaos runs (see internal/resilience/fault).
CHAOS_SEED ?= 2026

# The workloads BENCHMARK.json declares, each run by perfbench/run.sh.
BENCH_WORKLOADS = firehose geo-dense cluster batch

.PHONY: build test vet race verify chaos cluster-chaos partition-chaos disk-chaos crash load bench bench-test bench-obs bench-stream bench-cluster bench-geocode profile fuzz

# Every chaos target reads the one seed variable, STIR_FAULT_SEED.
chaos cluster-chaos partition-chaos disk-chaos crash: export STIR_FAULT_SEED = $(CHAOS_SEED)

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Race-check the packages that share metric registries or read-only indexes
# (the gazetteer's name index behind textnorm) across goroutines.
race:
	$(GO) test -race ./internal/textnorm/... ./internal/obs/... ./internal/resilience/... ./internal/twitter/... ./internal/geocode/... ./internal/pipeline/... ./internal/storage/... ./internal/ratelimit/... ./internal/stream/... ./internal/overload/... ./internal/daemon/... ./internal/logx ./internal/leaktest ./internal/cluster/... ./cmd/stir/...

verify: build vet test race crash cluster-chaos partition-chaos disk-chaos fuzz bench-test

# Short coverage-guided fuzzing of the decoders that read wire bytes
# (geocode XML, the cluster's binary forward and summaries frames, the
# traceparent header every daemon reads, the sample stream's tweet lines
# against encoding/json both ways), of the
# profile-location classifier against its reference, of the §IV summary
# against Analyze and a math/big sum, and of the gazetteer's district index
# against a linear scan, one target per line (go test -fuzz
# takes one target at a time, so each pattern is anchored). Seeds live
# under each package's testdata/fuzz; a crasher is written there too.
fuzz:
	$(GO) test -run xxx -fuzz '^FuzzUnmarshalResultSet$$' -fuzztime 10s ./internal/geocode/
	$(GO) test -run xxx -fuzz '^FuzzClassify$$' -fuzztime 10s ./internal/textnorm/
	$(GO) test -run xxx -fuzz '^FuzzSummary$$' -fuzztime 10s ./internal/core/
	$(GO) test -run xxx -fuzz '^FuzzFrame$$' -fuzztime 10s ./internal/cluster/
	$(GO) test -run xxx -fuzz '^FuzzDecodeUserState$$' -fuzztime 10s ./internal/stream/
	$(GO) test -run xxx -fuzz '^FuzzTraceparent$$' -fuzztime 10s ./internal/obs/trace/
	$(GO) test -run xxx -fuzz '^FuzzResolvePoint$$' -fuzztime 10s ./internal/admin/
	$(GO) test -run xxx -fuzz '^FuzzStreamLine$$' -fuzztime 10s ./internal/twitter/

# Run the deterministic fault-injection suite (retries under injected
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
	$(GO) test -race -count=1 -run 'TestClusterChaos|TestClusterCrashRecovery|TestClusterReplicatedIngest|TestClusterReplicatedRemoval|TestClusterScatterPartialDegradation|TestLeaveDownWorkerHandsOffNothing' ./internal/cluster/

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
	$(GO) test -race -count=1 -run 'TestDiskExhaustionChaosConverges|TestDegradedAutoFailoverOnlyWhenEvicting|TestDegradedWorkerReadAfterSilence|TestStalledWorkerRejoinsDegraded|TestStalledWorkerHealsWithoutCheckpoint' ./internal/cluster/
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
# tweets/sec on 4 shards with zero drops), and one tweet through the sample
# stream's line codec (encode and fast-path decode).
bench-stream:
	$(GO) test -run xxx -bench BenchmarkStreamIngest -benchtime 2s ./internal/stream/
	$(GO) test -run xxx -bench '^BenchmarkStreamLine$$' -benchtime 2s ./internal/twitter/

# Routed-cluster micro-benchmarks: ingest throughput through the router's journal+forward path and /v1/groups
# scatter-gather latency, each at 1, 2 and 4 workers (the scatter also at 2k and 20k users).
bench-cluster:
	$(GO) test -run xxx -bench BenchmarkClusterIngest -benchtime 1s ./internal/cluster/
	$(GO) test -run xxx -bench BenchmarkClusterScatterGroups -benchtime 300x ./internal/cluster/

# Reverse-geocoding micro-benchmarks: one gazetteer walk per firehose-shaped point through the packed district index
# (0 allocs/op on in-district and slack-fallback points); 100-point /v1/reverse_batch bodies through geocoded's handler;
# and the in-process resolver's lock-free point table from every proc, hit-heavy and miss-heavy (0 allocs/op on both).
bench-geocode:
	$(GO) test -run xxx -bench '^BenchmarkResolvePoint$$' -benchtime 2s ./internal/admin/
	$(GO) test -run xxx -bench 'BenchmarkServerReverseBatch|BenchmarkDirectResolver' -benchtime 2s ./internal/geocode/

# Offline continuous-profiling capture: run the sustained ingestion benchmark
# under the CPU and heap profilers and drop the profiles in profiles/ for
# `go tool pprof`. The live equivalents are served by every daemon at
# /debug/pprof/ (e.g. /debug/pprof/profile?seconds=10).
profile:
	mkdir -p profiles
	$(GO) test -run xxx -bench BenchmarkStreamIngest -benchtime 2s \
		-cpuprofile profiles/cpu.out -memprofile profiles/heap.out \
		-o profiles/stream.test ./internal/stream/
