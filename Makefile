GO ?= go

.PHONY: verify race test bench bench-all fmt smoke fuzz

# Tier-1 gate: everything must build, vet clean, and pass.
verify:
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test ./...

# Concurrency gate: readers, batched writers, and group commit must be
# race-free across every package, with exact per-query statistics.
race:
	$(GO) test -race ./...

# Fuzz gate: run each fuzzer for a bounded budget on top of its seed
# corpus under testdata/fuzz/ (also run in CI).
FUZZTIME ?= 20s
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzWALReplay -fuzztime=$(FUZZTIME) ./internal/wal
	$(GO) test -run='^$$' -fuzz=FuzzWireDecode -fuzztime=$(FUZZTIME) ./internal/server
	$(GO) test -run='^$$' -fuzz=FuzzFlatDecode -fuzztime=$(FUZZTIME) ./internal/rtree
	$(GO) test -run='^$$' -fuzz=FuzzTilePrune -fuzztime=$(FUZZTIME) ./internal/shard
	$(GO) test -run='^$$' -fuzz=FuzzDomination -fuzztime=$(FUZZTIME) ./internal/mbr

test:
	$(GO) test ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# Machine-readable perf snapshots: `make bench-<name>` runs the
# benchmarks matching <name>'s regexp and records ns/op, accesses/op
# and the custom metrics in its BENCH_*.json through cmd/benchjson;
# `make bench-all` runs every row (CI does, with BENCHTIME=1x, as a
# smoke check).
#
#   json   join engine: naive-serial baseline vs sweep at 1-8 workers
#   read   paged vs flat window queries (accesses/op must match
#          exactly) and boot-to-first-answer with/without flat boot
#   watch  commit-to-notification latency (in-memory and durable) and
#          fan-out cost with subscription R-tree pruning
#   repl   primary-commit -> replica-visible latency and cold-follower
#          catch-up (snapshot bootstrap + WAL tail replay)
#   shard  scatter-gather window queries and the 50k x 50k join,
#          sharded vs the single-index baseline
#   plan   histogram-planned vs static conjunction order, domination
#          pruning, and /v1/query cache miss vs hit latency
#
# name         benchmark regexp                                        output
BENCH_json  := BenchmarkJoinParallel                                   BENCH_join.json
BENCH_read  := BenchmarkQueryPaged|BenchmarkQueryFlat|BenchmarkColdBoot BENCH_read.json
BENCH_watch := BenchmarkWatchNotify|BenchmarkWatchFanout               BENCH_watch.json
BENCH_repl  := BenchmarkReplVisibility|BenchmarkReplCatchup            BENCH_repl.json
BENCH_shard := BenchmarkShardedQuery|BenchmarkShardedJoin              BENCH_shard.json
BENCH_plan  := BenchmarkPlanner|BenchmarkCachedQuery                   BENCH_plan.json
BENCHES     := json read watch repl shard plan
.PHONY: $(addprefix bench-,$(BENCHES))

BENCHTIME ?= 3x
$(addprefix bench-,$(BENCHES)): bench-%:
	$(GO) test -run='^$$' -bench='$(word 1,$(BENCH_$*))' -benchtime=$(BENCHTIME) . | $(GO) run ./cmd/benchjson > $(word 2,$(BENCH_$*))
	@cat $(word 2,$(BENCH_$*))

bench-all: $(addprefix bench-,$(BENCHES))

# Service smoke test: boot topod, query it, scrape /metrics, assert a
# clean SIGTERM drain, and check /v1/join pair counts against the
# topoquery serial engine (also run in CI).
smoke:
	$(GO) build -o $(CURDIR)/bin/topod ./cmd/topod
	$(GO) build -o $(CURDIR)/bin/topoquery ./cmd/topoquery
	$(GO) build -o $(CURDIR)/bin/datagen ./cmd/datagen
	bash scripts/smoke.sh $(CURDIR)/bin/topod $(CURDIR)/bin/topoquery $(CURDIR)/bin/datagen

fmt:
	gofmt -l -w .
