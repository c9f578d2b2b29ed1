GO ?= go
STATICCHECK ?= staticcheck

.PHONY: all build vet lint test race bench bench-smoke distserve-smoke fault-smoke corpus-smoke coord-smoke obs-smoke fuzz clean

all: vet build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis beyond vet. Install the pinned tool with:
#   go install honnef.co/go/tools/cmd/staticcheck@2024.1.1
lint:
	$(STATICCHECK) ./...

test:
	$(GO) test ./...

# Race-detect the concurrency-critical packages: the walk-while-ingest
# engine, the core sampler it wraps, the live service, and the wire
# fabric (batched senders + multi-session listener).
race:
	$(GO) test -race -timeout 20m ./internal/concurrent/ ./internal/core/ ./internal/walk/ ./internal/fabric/tcpgob/

# bench writes no report files; record artifacts with
# `bingobench -exp ... -out DIR` at a pinned config.
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .
	$(GO) run ./cmd/bingobench -exp concurrent -scale 0.002

# Tiny-scale pass over the JSON-emitting serving scenarios — the CI smoke
# step. Verifies the runners execute end to end and the BENCH_*.json
# reports appear; absolute numbers at this scale are meaningless, so the
# reports go to $$BENCH_OUT (default: a fresh temp dir), never over the
# committed artifacts.
bench-smoke:
	out="$${BENCH_OUT:-$$(mktemp -d)}"; \
	$(GO) run ./cmd/bingobench -exp concurrent,sharded,rebalance,backpressure,corpus,coordscale -datasets AM -scale 0.002 -walkers 500 -workers 2 \
		-kernel-modes sparse,dense,auto -procs 1,4 -out "$$out" && \
	for s in concurrent sharded rebalance backpressure corpus coordscale; do test -s "$$out/BENCH_$$s.json" || exit 1; done && \
	echo "bench-smoke reports in $$out"

# Multi-process serving smoke: spawns shard daemons (real bingowalk
# -shard-serve processes) on loopback, drives queries plus a
# growth-inducing feed through the ServeRemote coordinator, and checks a
# ≥1e5-draw chi-square over the served distribution plus edge-for-edge
# equality against a sequential replay.
distserve-smoke:
	$(GO) test -run TestDistServeLoopbackDifferential -count 1 -v .

# Fault-injection smoke: the failover differentials — the in-process
# chaos-fabric kill/restart (race-detected), the credit-window bound
# against a slow shard, the transport's dial/accept hardening
# regressions, and the real kill -9 of a shard daemon mid-tape with
# chi-square + edge-for-edge validation after the rejoin. The in-process
# kill/restart and the spent-reroute-budget regression also run without
# -race, where the scheduling differs.
fault-smoke:
	$(GO) test -race -count 1 -run 'TestFailoverKillRestartDifferential|TestCreditWindowBoundsSlowShard' ./internal/walk/
	$(GO) test -count 1 -run 'TestFailoverKillRestartDifferential|TestRelaunchBudgetExhaustedFails' ./internal/walk/
	$(GO) test -race -count 1 -run 'TestDialFindsLateDaemon|TestAcceptLoopSurvivesGarbageClients' ./internal/fabric/tcpgob/
	$(GO) test -race -count 1 -timeout 20m -run TestFaultKillDaemonMidTape -v .

# Standing-corpus smoke: the chi-square differential of the maintained
# corpus against fresh walks on the final graph after an 8k hub-churn
# tape (in-process fabric AND loopback tcpgob), the inverted-index
# brute-force property, and the touch-queue coalescing/credit regression
# — all race-detected.
corpus-smoke:
	$(GO) test -race -count 1 -timeout 20m -run 'TestCorpusDifferential|TestCorpusIndexMatchesBruteForce|TestCorpusCoalescingCredit' -v ./internal/walk/

# Multi-coordinator smoke: the reader-tier differentials — two read-
# coordinators querying through a rebalance migration mid-tape
# (in-process fabric AND loopback tcpgob, chi-square + edge-for-edge),
# reader crash isolation, plan-epoch broadcast invalidation, a reader
# relaunching a walker lost in a dead shard — plus the real-process
# variant: bingowalk -shard-serve daemons, a ServeRemote write session,
# and bingo.AttachReader readers over loopback.
coord-smoke:
	$(GO) test -race -count 1 -timeout 20m -run 'TestMultiCoord|TestReaderCrash|TestPlanEpochBroadcast|TestReaderRelaunchesLostWalker' -v ./internal/walk/
	$(GO) test -race -count 1 -timeout 20m -run TestCoordScaleRealProcess -v .

# Observability smoke: real -shard-serve daemons each serving a
# -debug-addr plane, a ServeRemote write session with its own, one
# feed-and-query pass — then scrape /metrics, /statusz, and /eventz on
# every plane and assert the promised metric families, including the
# shard-labeled node tallies the coordinator aggregates over the fabric.
# The kernel overhead budget and journal-ordering tests ride along.
obs-smoke:
	$(GO) test -count 1 -run TestObsSmoke -v .
	$(GO) test -count 1 -run 'TestKernelObsOverheadBudget|TestJournalMigrationOrdering|TestJournalFailoverOrdering|TestMetricsScrapeUnderLoad' -v ./internal/walk/

# Short local fuzz session against the sampler's structural invariants.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzSamplerMutate -fuzztime 30s ./internal/core/

# The committed BENCH_*.json artifacts are source, not build output;
# clean removes only what building and benchmarking leave behind.
clean:
	rm -rf .bench_build
