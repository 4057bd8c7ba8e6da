# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test race vet bench bench-quick bench-engineered bench-klsm bench-skiplist bench-grid bench-churn bench-net bench-durable bench-recover pqd-smoke durable check chaos repro verify trend profile examples clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Full suite under the race detector (slow on small machines).
race:
	$(GO) test -race ./...

# CI gate: gofmt, vet, build, then the race-sensitive packages (the
# engineered MultiQueue's buffer stealing, the k-LSM's pooled hot path with
# spy/run-buffer stealing, the packed-word skiplist substrate and its
# lock-free queues, the handle pool with its steal path and 0-alloc gate,
# the harness churn mode, the quality replay, and the chaos checker) under
# the race detector, plus a short-budget chaos pass over the whole registry
# (scalar, batch widths, and pooled handle lifecycles), a smoke run of the
# batch-width grid, and a self-diff smoke of the trend tool. The netpq
# suite races its dispatcher/responder pair at GOMAXPROCS 1 and 2, so it
# sees both a single-P schedule and truly parallel goroutines. The
# perfbench module is its own Go module, which root `go test ./...` never
# builds, so its tests run here too.
check:
	test -z "$$(gofmt -l $$(git ls-files '*.go'))"
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./internal/pq/ ./internal/core/ ./internal/multiq/ ./internal/skiplist/ ./internal/linden/ ./internal/spray/ ./internal/lotan/ ./internal/harness/ ./internal/quality/ ./internal/chaos/
	$(GO) test -race -cpu 1,2 ./internal/netpq/
	cd perfbench && $(GO) test ./...
	$(GO) test -race -run TestPoolChurn .
	$(MAKE) durable
	$(GO) run -race ./cmd/pqverify -chaos -ops 1500
	$(GO) run -race ./cmd/pqverify -chaos -ops 1500 -batch 8
	$(GO) run -race ./cmd/pqverify -chaos -ops 1500 -pool
	$(GO) run ./cmd/pqgrid -smoke > /dev/null
	$(GO) run ./cmd/pqload -smoke > /dev/null
	$(GO) run ./cmd/pqbench -recover -recover-items 5000 -recover-ages 0,5000 \
		-reps 2 -queues linden -out "" > /dev/null
	$(GO) run ./cmd/pqtrend -q BENCH_6.json BENCH_6.json
	$(GO) run ./cmd/pqtrend -q BENCH_9.json BENCH_10.json

# Fault-injection stress pass: every registry queue under seeded schedule
# perturbations and forced CAS/try-lock failures, with item-conservation,
# emptiness-oracle, Flusher-contract and relaxation-bound checking (see
# DESIGN.md §6). A failure prints a replay line; rerun it verbatim to
# reproduce the same injected decision sequence.
#   make chaos                # default budget (batch width 8, see CHAOS_BATCH)
#   make chaos CHAOS_OPS=50000 CHAOS_THREADS=8 CHAOS_BATCH=1
# CHAOS_BATCH > 1 interleaves batch (InsertN/DeleteMinN) and scalar calls
# on every worker, stressing the batch hot paths of DESIGN.md §4c.
CHAOS_OPS     ?= 10000
CHAOS_THREADS ?= 4
CHAOS_BATCH   ?= 8
chaos:
	$(GO) run -race ./cmd/pqverify -chaos -ops $(CHAOS_OPS) -threads $(CHAOS_THREADS) -batch $(CHAOS_BATCH)

# The engineered-MultiQueue acceptance bench (seed multiq vs. multiq-s4-b8
# vs. klsm4096 at 8 threads); benchstat-comparable output.
bench-engineered:
	$(GO) test -bench=MultiQueueEngineered -benchmem -benchtime=1s -count=3 .

# The k-LSM acceptance benches: the fig-4a uniform-workload cell at 8 threads
# for klsm128/256/4096 plus the single-threaded insert+delete-min allocation
# microbench; benchstat-comparable output, allocs/op via -benchmem.
bench-klsm:
	$(GO) test -bench='^BenchmarkKLSM' -benchmem -benchtime=1s -count=3 .

# The skiplist-substrate acceptance benches: the fig-4a uniform-workload
# cell at 8 threads for linden/spray/lotan plus the single-threaded linden
# insert+delete-min allocation microbench; benchstat-comparable output,
# allocs/op via -benchmem.
bench-skiplist:
	$(GO) test -bench='^BenchmarkSkiplistPQ$$|^BenchmarkLindenInsertDeleteMin$$' -benchmem -benchtime=1s -count=3 .

# The batch-width comparison grid (DESIGN.md §4c): fig-4a t8 for a queue
# cross-section at widths {1,8}, reps interleaved across widths, plus the
# goroutine-churn cells (pool vs naive handle lifecycle), emitted as
# BENCH_7.json (MOps/s ±CI, allocs/op, handle accounting, git SHA).
bench-grid:
	$(GO) run ./cmd/pqgrid

# The socket-path grid: pqload self-hosts an in-process pqd on a loopback
# socket and measures the fig-4a cell through it (8 connections, batch 8,
# 32 requests pipelined per connection), emitted as BENCH_8.json with
# "net:"-prefixed cells so pqtrend keeps the regimes distinct. Point it at
# a running server with ADDR=host:port.
ADDR ?=
bench-net:
	$(GO) run ./cmd/pqload $(if $(ADDR),-addr $(ADDR))

# End-to-end socket smoke (used by `make check`): self-hosted server on an
# ephemeral port, a short pqload burst, clean shutdown, nonzero ops gate.
pqd-smoke:
	$(GO) run ./cmd/pqload -smoke > /dev/null

# Durability gate (used by `make check`): the WAL/snapshot/recovery suite
# under the race detector, including the chaos checker over durable-
# wrapped queues with the wal-fsync failpoint, the crash-capture tests at
# the fsync boundary and at every concurrent-snapshot phase boundary,
# the producer-stall test, and the end-to-end kill/recover/conserve test
# that SIGKILLs a durable pqd child mid-traffic and proves the restart
# conserves every acknowledged item (DESIGN.md §8).
durable:
	$(GO) test -race -count=1 ./internal/durable/...
	$(GO) test -race -count=1 -run TestKillRecoverConserve ./cmd/pqd/

# The durable-tier acceptance bench: fig-4a cell over durable-wrapped
# queues on a real WAL (mmap segments where the platform supports them),
# group commit vs the fsync-per-op naive baseline, with fsync
# accounting; batch width 8 mirrors the socket grid so the tiers are
# comparable. Emitted with "dur:"/"dur-naive:" cells so pqtrend keeps
# the regimes distinct.
bench-durable:
	$(GO) run ./cmd/pqbench -durable -batch 8 -threads 1,2,4,8 -reps 3

# The durable acceptance grid plus the recovery-time curve in one
# report: the bench-durable cells and "rec:" cells (cold-start replay
# rate at several snapshot ages), emitted as BENCH_10.json. `make check`
# gates the dur: cells of this report against BENCH_9.json.
bench-recover:
	$(GO) run ./cmd/pqbench -durable -recover -batch 8 -threads 1,2,4,8 \
		-reps 5 -out BENCH_10.json

# The goroutine-churn acceptance bench: pool vs naive lifecycle on the
# churn acceptance queues (10^5 goroutines over 8 slots, every 64th
# abandoning its handle), next to their fixed-handle width-1 cells, as
# JSON on stdout.
bench-churn:
	$(GO) run ./cmd/pqgrid -queues klsm4096,multiq -widths 1 \
		-churn-queues klsm4096,multiq -reps 3 -out ""

# Every paper figure/table as a testing.B bench, fixed op count for speed.
bench-quick:
	$(GO) test -bench=. -benchmem -benchtime=50000x ./...

# Paper-style benches with time-based sampling (slower, steadier numbers).
bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate the full experiment grid into report.md.
repro:
	$(GO) run ./cmd/pqrepro -out report.md

# Check claimed relaxation bounds against observed rank errors.
verify:
	$(GO) run ./cmd/pqverify

# Diff the two newest BENCH_*.json reports; nonzero exit when any cell's
# MOps/s regressed beyond the CI95 overlap (see cmd/pqtrend).
trend:
	$(GO) run ./cmd/pqtrend

# Profile one queue on the fig-4a cell: CPU + heap profiles and queue
# telemetry under ./profiles/. Inspect with `go tool pprof`.
#   make profile QUEUE=klsm4096 THREADS=8 DURATION=2s
QUEUE    ?= klsm4096
THREADS  ?= 8
DURATION ?= 2s
profile:
	mkdir -p profiles
	$(GO) run ./cmd/pqbench -queues $(QUEUE) -threads $(THREADS) \
		-duration $(DURATION) -reps 1 -telemetry \
		-cpuprofile profiles/$(QUEUE)-t$(THREADS).cpu.pprof \
		-memprofile profiles/$(QUEUE)-t$(THREADS).mem.pprof \
		| tee profiles/$(QUEUE)-t$(THREADS).telemetry.txt
	@echo "profiles written to ./profiles/ (go tool pprof profiles/$(QUEUE)-t$(THREADS).cpu.pprof)"

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/sssp
	$(GO) run ./examples/dessim
	$(GO) run ./examples/branchbound
	$(GO) run ./examples/pqsort
	$(GO) run ./examples/orderbook -orders 5000

clean:
	$(GO) clean ./...
