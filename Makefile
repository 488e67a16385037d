# Standard entry points for building and validating the reproduction.
#
#   make build      compile every package and command
#   make test       full test suite (tier-1 gate), includes the chaos matrix
#   make chaos      fault-injection matrix: every impairment class and the
#                   stacked combo, plus the loss-recovery acceptance bar
#   make race       race-detector pass over the concurrent pipeline
#   make crash-matrix  process-crash fault injection: kill a campaign child
#                   at random shard boundaries, resume from checkpoints,
#                   assert digest equality against the cold run
#   make vet        static checks
#   make perfbench-test  the campaign benchmark harness's tiny-scale tests
#   make bench      campaign benchmarks, recorded as BENCH_PR1.json
#   make bench-sim  simulated-campaign + event-core benchmarks (BENCH_PR2 set)
#   make bench-sim-par parallel vs serial sharded campaigns (BENCH_PR4.json)
#   make profile    bench-sim under -cpuprofile/-memprofile for pprof
#                   (PROFILE_PKG / PROFILE_BENCH select other suites)
#   make cover      test suite with coverage profile + per-function summary
#   make doccheck   every package documented (go vet + scripts/doccheck)
#   make fuzz-smoke every Fuzz* target for 10s each
#   make smoke      2×2 orsweep grid: pinned baseline digest + pool invariance
#   make serve-smoke  same grid through the orserved HTTP API: pinned
#                   digest, digest-cache hit, clean SIGTERM drain
#   make fabric-smoke  same grid through a real coordinator + 3 worker
#                   processes: byte-identical to single-process, pinned
#                   digest, and a SIGKILLed worker's shard must requeue
#                   and converge
#   make benchdiff  fresh benchmarks vs checked-in baselines (regression gate)
#   make ci         exactly what .github/workflows/ci.yml runs

GO ?= go
BENCH_OUT ?= BENCH_PR1.json
BENCH_FRESH ?= bench_fresh.json
# Repetitions per benchmark; benchdiff collapses them to per-metric minima,
# so more runs means less scheduler noise in the gate. The BENCH_PR<n>.json
# ledgers record 5 runs each, so 5 folds the same statistic on both sides.
BENCH_COUNT ?= 5
PROFILE_DIR ?= profiles
# Profile target knobs: which package and which benchmarks to profile.
PROFILE_PKG ?= .
PROFILE_BENCH ?= CampaignSimulated
COVER_OUT ?= cover.out
SMOKE_DIR ?= smoke-out
FABRIC_LOG_DIR ?= fabric-smoke-logs

# The loss-free 2018 cell of the smoke grid below, pinned. It is the
# FaultDigest of RunSimulation(year=2018, shift=14, seed=1) — the same
# digest family internal/core's golden tests and internal/sweep's
# TestSweepGoldenCell pin. Re-derive by running the smoke grid and reading
# cells[0].digest from the matrix JSON if a change legitimately re-baselines
# the campaign bytes.
SMOKE_BASELINE := d19bd873ab802eecb15921fb73145c7ca0ae4b5eed4d5b6aa670791ad1557d47

.PHONY: all build test chaos race crash-matrix vet perfbench-test bench bench-sim benchdiff profile cover doccheck fuzz-smoke smoke serve-smoke fabric-smoke ci

all: build vet test

build:
	$(GO) build ./...

# `go test ./...` already runs the chaos matrix (it lives in internal/core's
# test suite), so the tier-1 gate covers adverse networks by default; the
# chaos target exists to iterate on just that suite.
test:
	$(GO) test ./...

# Fault-injection gate on its own: the impairment matrix (determinism,
# accounting invariants, bounded event queue per scenario), the 30%-burst-
# loss recovery acceptance test, and the pinned adverse-network golden.
chaos:
	$(GO) test -count=1 -run 'TestChaos|TestFaultGolden' ./internal/core/ \
		-v -timeout 10m

# The concurrent paths: the synthesis engine's shard pool (assigner forks
# share the avoid set and its prefix bitmap across goroutines, DESIGN.md
# §2), the sharded simulation fan-out (worker pool over private
# sub-simulations, DESIGN.md §12), the wire codec both run, the
# accumulator/stats merges, the sweep's cell pool, the checkpoint store
# feeding off shard workers (DESIGN.md §13), and the
# signal-to-context bridge. Each netsim.Sim, prober and DNS engine is
# single-threaded by design — -race over them guards against a future
# change accidentally sharing state across sub-simulations (everything a
# shard touches after spawn must be private or read-only; the
# worker-equivalence tests pin the bytes, this gate pins the memory model).
race:
	$(GO) test -race ./internal/core/... ./internal/analysis/... \
		./internal/population/... ./internal/dnswire/... \
		./internal/netsim/... ./internal/prober/... ./internal/dnssrv/... \
		./internal/obs/... ./internal/sweep/... ./internal/sigctx/... \
		./internal/serve/... ./internal/fabric/...

# Process-crash fault injection (DESIGN.md §13): the crash matrix re-execs
# the test binary as a campaign child, kills it with SIGKILL at seeded-random
# shard boundaries (≥3 distinct kill points per scenario, both calibration
# years, the stacked chaos impairments and a synthetic campaign), resumes
# from the on-disk checkpoints, and requires the final digest to equal the
# never-crashed run.
crash-matrix:
	$(GO) test -count=1 -run 'TestCrash' ./internal/core/ -v -timeout 10m

vet:
	$(GO) vet ./...

# perfbench/ is a module of its own, so `go test ./...` at the root skips
# it. Its tests run every workload at a tiny scale: a change to an API the
# harness calls fails here rather than at benchmark time.
perfbench-test:
	cd perfbench && $(GO) test ./...

# Coverage over the whole module; the tail line is the total.
cover:
	$(GO) test -short -coverprofile $(COVER_OUT) ./...
	$(GO) tool cover -func $(COVER_OUT) | tail -n 1

# Documentation gate: go vet plus a parser-level check that every package
# under internal/ and cmd/ carries a package doc comment, that the API
# reference matches the router, and that each CLI's README flag table
# matches the flags it actually registers.
doccheck: vet
	$(GO) run ./scripts/doccheck -api API.md -routes internal/serve/router.go \
		-flagdoc README.md -flagcli cmd/orsweep -flagcli cmd/orserved \
		-flagcli cmd/orfabric -flagcli cmd/orsurvey -flagcli cmd/ortrend \
		./internal ./cmd ./scripts

# Fuzz smoke: every Fuzz* target in the module (the wire codec, the
# capture-log reader, the impairment-spec parser, the sweep spec-file and
# JobSpec decoders, the shard envelope, the zone-file parser, the scan
# universe's position inverse, and any added later),
# each for 10s on top of its seed corpus. `go test -fuzz`
# takes one target per run, so the targets are found by name.
fuzz-smoke:
	@set -e; grep -r --include='*_test.go' -o '^func Fuzz[A-Za-z0-9_]*' internal cmd scripts | \
	while IFS=: read -r file fn; do \
		name=$${fn#func }; \
		echo "fuzz-smoke: $$name in ./$$(dirname $$file)"; \
		$(GO) test -run '^$$' -fuzz "^$$name\$$" -fuzztime 10s ./$$(dirname $$file); \
	done

bench:
	$(GO) test -run '^$$' -bench 'CampaignSynthetic(Serial|Parallel)' -benchmem -count $(BENCH_COUNT) . \
		| tee /dev/stderr | $(GO) run ./scripts/bench2json > $(BENCH_OUT)

# Full simulated campaigns (both calibration years) plus the event-core
# micro-benchmarks that the PR2 optimization targets.
bench-sim:
	$(GO) test -run '^$$' -bench 'CampaignSimulated' -benchmem -count $(BENCH_COUNT) .
	$(GO) test -run '^$$' -bench 'EventThroughput|TimerEnqueueDequeue|HostLookup' \
		-benchmem -count $(BENCH_COUNT) ./internal/netsim

# The sharded simulation head-to-head: the default parallel campaign
# (Workers=0, one goroutine per core) against the pinned serial schedule
# (Workers=1). Records the PR4 baseline consumed by make benchdiff.
bench-sim-par:
	$(GO) test -run '^$$' -bench 'CampaignSimulated(Serial)?20' -benchmem -count $(BENCH_COUNT) . \
		| tee /dev/stderr | $(GO) run ./scripts/bench2json > BENCH_PR4.json

# Benchmark-regression gate: run the committed benchmark suites, fold the
# output through bench2json (repeat runs collapse to per-metric minima), and
# compare each benchmark against the newest checked-in BENCH_PR<n>.json that
# records it (BenchmarkBuildFull2018, BenchmarkBuildScaled2018 and
# BenchmarkBuildScaled2013, one population compile at shift 0, 10 and 8, the
# last the sim-2013 campaign's: BENCH_PR32.json;
# BenchmarkShardEnvelope, the version-4 envelope encoded by copying
# the shard's R2 log, BenchmarkHostLookupMiss, a host-table lookup of an empty
# address, and BenchmarkProbeLogKeep, one kept R2 appended to a record log:
# BENCH_PR31.json;
# BenchmarkEventThroughput and BenchmarkStepDrain: BENCH_PR20.json; BenchmarkAssignerDraw, ns per
# address that population.Assigner.Assign draws (the ledger timed the deleted cursor
# walk, the same walk): BENCH_PR24.json; the synthetic-campaign benchmarks
# BenchmarkCampaignSynthetic{2018,Serial,Parallel},
# BenchmarkSynthProbe, one sub-benchmark per answer kind, BenchmarkTruthAddr
# and BenchmarkAssignerWalkSteps: BENCH_PR25.json; the simulated-campaign
# benchmarks BenchmarkCampaignSimulated{2013,2018,Serial2013,Serial2018}
# and BenchmarkUniverseNext, ns per address of the prober's universe walk:
# BENCH_PR27.json; BenchmarkProberSend/{routed,unrouted,impaired}, ns per
# probe of a running campaign's send path, impaired with the sim-chaos-2018
# pipeline and three retries: BENCH_PR28.json; BenchmarkRecursiveResolve, one
# cold recursive resolution by a newly reached resolver through the netsim
# shell: BENCH_PR30.json).
# Fails on
# >25% ns/op growth or >0.1% allocs/op growth for any benchmark both sides
# know (zero-alloc benchmarks stay strict — 0 × 1.001 is still 0).
# bench_fresh.json is scratch (gitignored).
benchdiff:
	( $(GO) test -run '^$$' -bench 'CampaignSynthetic(2018|Serial|Parallel)' -benchmem -count $(BENCH_COUNT) . ; \
	  $(GO) test -run '^$$' -bench 'CampaignSimulated' -benchmem -count $(BENCH_COUNT) . ; \
	  $(GO) test -run '^$$' -bench 'EventThroughput|TimerEnqueueDequeue|HostLookup|StepDrain' -benchmem -count $(BENCH_COUNT) ./internal/netsim ; \
	  $(GO) test -run '^$$' -bench 'ShardEnvelope|SynthProbe' -benchmem -count $(BENCH_COUNT) ./internal/core ; \
	  $(GO) test -run '^$$' -bench 'TruthAddr' -benchmem -count $(BENCH_COUNT) ./internal/dnssrv ; \
	  $(GO) test -run '^$$' -bench 'AssignerDraw|AssignerWalkSteps|BuildFull2018|BuildScaled' -benchmem -count $(BENCH_COUNT) ./internal/population ; \
	  $(GO) test -run '^$$' -bench 'ProberSend' -benchmem -count $(BENCH_COUNT) ./internal/prober ; \
	  $(GO) test -run '^$$' -bench 'RecursiveResolve' -benchmem -count $(BENCH_COUNT) ./internal/behavior ; \
	  $(GO) test -run '^$$' -bench 'UniverseNext' -benchmem -count $(BENCH_COUNT) ./internal/scan ; \
	  $(GO) test -run '^$$' -bench 'ProbeLogKeep' -benchmem -count $(BENCH_COUNT) ./internal/capture ) \
	  | $(GO) run ./scripts/bench2json > $(BENCH_FRESH)
	$(GO) run ./scripts/benchdiff -fresh $(BENCH_FRESH) -alloc-ratio 1.001 -newest BENCH_PR*.json

# Sweep smoke: a 2×2 grid (2018/2013 × pristine/20% loss) at the golden
# scale, run twice with different pool sizes. Asserts the matrix is
# byte-identical across schedules and that the loss-free 2018 baseline cell
# reproduces the pinned digest.
smoke:
	rm -rf $(SMOKE_DIR) && mkdir -p $(SMOKE_DIR)
	$(GO) run ./cmd/orsweep -shift 14 -seed 1 -year 2018 -year 2013 \
		-loss none -loss loss:0.2 -workers 1 \
		-json $(SMOKE_DIR)/matrix1.json > $(SMOKE_DIR)/matrix1.txt
	$(GO) run ./cmd/orsweep -shift 14 -seed 1 -year 2018 -year 2013 \
		-loss none -loss loss:0.2 -workers 4 \
		-json $(SMOKE_DIR)/matrix4.json > $(SMOKE_DIR)/matrix4.txt
	cmp $(SMOKE_DIR)/matrix1.json $(SMOKE_DIR)/matrix4.json
	cmp $(SMOKE_DIR)/matrix1.txt $(SMOKE_DIR)/matrix4.txt
	grep -q '"digest": "$(SMOKE_BASELINE)"' $(SMOKE_DIR)/matrix1.json
	@echo "smoke: matrix invariant across pool sizes; baseline digest pinned"

# Service smoke: boot the orserved daemon, run the same smoke grid through
# the HTTP API, and assert the pinned baseline digest, a digest-cache hit
# on resubmission, and a clean SIGTERM drain.
serve-smoke:
	$(GO) run ./scripts/servesmoke -baseline $(SMOKE_BASELINE)

# Fabric smoke: the multi-process twin of `make smoke`. One coordinator
# process + three worker processes on loopback run the same 2×2 grid;
# every cell must be byte-identical to the single-process run and the
# loss-free 2018 cell must reproduce the pinned digest. A second pass
# SIGKILLs a worker mid-campaign and requires the requeued shard to
# converge to the identical output. Coordinator/worker stderr lands in
# $(FABRIC_LOG_DIR) so CI can attach it to failures.
fabric-smoke:
	rm -rf $(FABRIC_LOG_DIR) && mkdir -p $(FABRIC_LOG_DIR)
	$(GO) run ./scripts/fabricsmoke -baseline $(SMOKE_BASELINE) \
		-logdir $(FABRIC_LOG_DIR)

# The CI gauntlet, runnable locally: exactly the blocking jobs of
# .github/workflows/ci.yml (the workflow adds a non-blocking benchdiff).
ci: build vet test perfbench-test race chaos fuzz-smoke crash-matrix doccheck smoke serve-smoke fabric-smoke

# CPU and heap profiles for pprof — by default the simulated campaign:
#   go tool pprof $(PROFILE_DIR)/cpu.out
# Other suites via the knobs, e.g. the event loop:
#   make profile PROFILE_PKG=./internal/netsim PROFILE_BENCH=StepDrain
profile:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -run '^$$' -bench '$(PROFILE_BENCH)' -benchmem -count 1 \
		-cpuprofile $(PROFILE_DIR)/cpu.out -memprofile $(PROFILE_DIR)/mem.out \
		-o $(PROFILE_DIR)/bench.test $(PROFILE_PKG)
