# Tier-1 verify loop. `make verify` is what CI (and any PR) must keep
# green: vet, build, full tests, and the race detector over the whole
# tree. The chaos/soak suites in internal/cluster and internal/core run
# as part of `test`; `make quick` skips the multi-second soak.

GO ?= go

.PHONY: build vet test quick race fuzz bench-quick bench-telemetry bench-evict guards bench-gates bench-layout bench-concurrent bench-wire kv-bench kv-soak cover stress chaos loc verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

quick:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# Short fuzz session over the wire codec: arbitrary bytes into the frame
# reader (must error, never panic or desync) and lossless round trips
# over randomized Request/Response field sets. The seed corpus also runs
# as ordinary tests under `make test`.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzFrameDecode -fuzztime=15s ./internal/cluster
	$(GO) test -run='^$$' -fuzz=FuzzRequestRoundTrip -fuzztime=15s ./internal/cluster
	$(GO) test -run='^$$' -fuzz=FuzzResponseRoundTrip -fuzztime=15s ./internal/cluster

# Full quick artifact sweep through the parallel experiment engine under
# the race detector: exercises the worker pools, the single-flight trace
# cache and every driver's fan-out in one shot.
bench-quick:
	$(GO) run -race ./cmd/kona-bench -run all -quick -parallel 0 -out /dev/null

# Eviction-path guard (DESIGN.md §8): the steady-state evict (one memnode
# and two) and fetch-hit allocation checks (-benchmem must report
# 0 allocs/op on the arena-backed paths), the wire's single-vs-batched ReadPages round
# trip (the `read-pages` kind the replacement engine's copy uses), and a
# fill's gather of a page's written lines against one 4 KB `read`.
# -benchtime=1x keeps it a smoke run; compare properly with -benchtime=2s.
bench-evict:
	$(GO) test -run='^$$' -bench='BenchmarkEvictSteadyState|BenchmarkFetchHitSteadyState' -benchmem -benchtime=1x ./internal/core
	$(GO) test -run='^$$' -bench='BenchmarkReadPagesVsSingle|BenchmarkGatherVsPageRead' -benchtime=1x ./internal/cluster

# Fourteen single-test guards. The first three run on the simulated fabric and
# bound counts or *virtual-time* p99s — latency computed on the simulated
# fabric's clock, which nothing off the measured path can touch — so they
# are deterministic and have no noise floor to state. The fourth is
# wall-clock; its test comment states the floor. The next eight count RPCs
# or bytes on loopback TCP and time nothing. The last two bound the bytes
# the eviction arena and the value heap hold, on the simulated fabric.
#  - Sync contract (DESIGN.md §15): Sync is a write-back barrier, not an
#    invalidation. A Sync over a clean, resident working set must hand no
#    frame to the eviction handler, and the read pass after it must not
#    issue one remote fetch — the regression that cost kv-hot 0.43
#    refetches per op.
#  - Replacement starvation (DESIGN.md §10): a concurrent budgeted member
#    replacement — a lost member repaired, a live one migrated; one row
#    each — must not degrade the workload's fetch p99 by 10% or more; the
#    background copy cannot reach the fetch clock unless it gets onto the
#    fetch path.
#  - Sharing overhead (DESIGN.md §14): idle reader attachments must not
#    put lease machinery on the writer's flush path — the per-Sync p99
#    with 4 attached readers must stay within 10% of the unshared baseline.
#  - Write-back cost model (DESIGN.md §9, §15): a Sync costs what is dirty
#    now. A runtime that once buffered 64k dirty pages must Sync 200 dirty
#    pages within 2x of a fresh runtime's time (minimum of 20; 1.0x here,
#    3.3x before the pending set stopped being a map that was cleared).
#  - Cache-line log bytes (DESIGN.md §8): 1 000 pages with one dirty line
#    each, synced at R=2, put exactly 2 x 1000 x (64 + 5) bytes plus one
#    4-byte terminator per write-log on the memnodes' log_bytes counter
#    (10-byte entry headers and 8-byte terminators before).
#  - Span reads (DESIGN.md §16): a cold Read of 3 plain pages is one
#    memnode `read` RPC and no `read-pages`, and fetches exactly the 3 x
#    4 096 bytes (one `read-pages` when a whole-page scatter-gather batch
#    served it).
#  - Fresh allocations (DESIGN.md §16): loading 20k keys into a kv.Store
#    serves zero memnode read RPCs (5 006 when the value heap's chunks come
#    from Malloc) and the same number of write-log RPCs either way.
#  - One class per page (DESIGN.md §12): after a mixed-size load and a
#    Sync, every get makes at most one RPC in all — a `read`, or a
#    `read-pages` gathering a page's written lines (the shared carve cursor
#    it replaced let half the 2 KB records straddle two pages).
#  - Object pages (DESIGN.md §16): cold gets of 2 KB and 8 KB records
#    fetch exactly the records' lines — core.fpga.bytes_fetched grows by
#    each record's length rounded up to 64 B — with one `read` RPC per
#    record (4 KB and 12 KB per record, the 8 KB ones in `read-pages`,
#    before object pages).
#  - Cached reuse (DESIGN.md §12): a set that reuses a freed block takes
#    one whose record-ending line is in FMem, below the top of the free
#    list, and so makes no `rfo` fetch and no memnode `read` RPC (one of
#    each when the top of the free list was taken).
#  - Object sets (DESIGN.md §12, §16): sets of 2 KB and 8 KB records into
#    freed blocks of flushed object pages write out to the end of their
#    last line and so make no `rfo` fetch and no memnode `read` RPC (one of
#    each per set when the partial last line was read), while a 300 B set
#    into a flushed shared page still makes exactly one `rfo`.
#  - Written lines (DESIGN.md §16): a cold get from a page of four 536 B
#    records makes one RPC, and the memnodes send exactly their 4 x 9
#    written lines (the whole 4 KB page before written-lines masks); a set
#    ending in a line no record ever reached makes no `rfo` fetch and no
#    memnode RPC (one of each before).
#  - Arena lifetime (DESIGN.md §8): with pages on two memnodes filling at
#    different rates and no Sync, so only threshold cycles run, 2 040 dirty
#    evictions leave core.evict.arena_bytes at most 4 x LogBytes (4 MB, 16
#    chunks, when an arena recycled only once every batch was empty).
#  - Large records (DESIGN.md §12): 2 KB and 8 KB values hold at most 1.06
#    block bytes per value byte, their classes being whole lines laid end to
#    end (2.00 when each took a power-of-two block on a page boundary).
guards:
	$(GO) test -run 'TestSyncKeepsCleanWorkingSet|TestReplacementDoesNotStarveFetchP99|TestLeaseIdleReadersDoNotDegradeWriterFlushP99|TestSyncCostIgnoresHighWater|TestLogBytesPerDirtyLine|TestMultiPageReadIsOneRPC|TestEvictArenaBoundedAcrossDestinations' -count=1 -v ./internal/core
	$(GO) test -run 'TestFreshLoadFetchesNothing|TestMixedSizeGetsFetchOnePage|TestObjectPageGetsFetchTheirLines|TestSetReusesCachedBlock|TestObjectSetClaimsItsLastLine|TestGetFetchesOnlyWrittenLines|TestLargeRecordsPackEndToEnd' -count=1 -v ./internal/kv

# The benchmark's own gates at full size, which TestSmoke's miniatures do
# not reach: every workload's plain and traced pass (bench/run.sh, seed 1,
# 2 s each, about 100 s in all). A pass exits nonzero on a failed op, a run
# error, a workload outside its fetches/op range (kv-cold's floor is 0.9),
# or, traced, a layer budget that misses the end-to-end mean by more than
# 5%. That budget check can fail on a disturbed host: the pass's JSON line
# (printed before the failure) carries loadgen.disturbed_frac, near 1 when
# the host was busy. Prints each failing pass's stderr; not part of verify.
bench-gates:
	@fail=0; err=$$(mktemp); \
	for w in kv-hot kv-cold kv-write rt-page; do for t in 0 1; do \
		echo "bench-gates: $$w trace=$$t"; \
		if ! bash bench/run.sh -workload $$w -seed 1 -seconds 2 -trace $$t 2>$$err; then \
			echo "bench-gates: $$w trace=$$t FAILED:" >&2; cat $$err >&2; fail=1; \
		fi; \
	done; done; rm -f $$err; exit $$fail

# The benchmark binary's code layout: prints the address of math/rand.read
# in a fresh build of ./bench. rt-page's setup_s moves with that address
# (ROADMAP 1(a)), so compare it between two commits before reading an
# rt-page setup_s move as the change's own. Not part of verify.
bench-layout:
	@d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	$(GO) build -o "$$d/bench" ./bench && \
	$(GO) tool nm "$$d/bench" | awk '$$3 == "math/rand.read" {print $$3, "0x" $$1}'

# Telemetry-overhead guard (DESIGN.md §7): one pass over the
# disabled/enabled benchmark pairs on the two hottest instrumented paths
# — the cachesim batched lookup loop and the pooled TCP read — so a
# change that adds hot-loop instrumentation fails loudly in review, then
# the histogram's Observe, which must report 0 allocs/op.
# -benchtime=1x keeps it a smoke run; compare properly with -benchtime=1s.
bench-telemetry:
	$(GO) test -run='^$$' -bench='BenchmarkTelemetryOverhead' -benchtime=1x ./internal/cachesim ./internal/cluster
	$(GO) test -run='^$$' -bench='BenchmarkHistogramObserve' -benchmem ./internal/telemetry

# Concurrency stress pass (DESIGN.md §9): the data-path and cluster
# packages, three times each, under the race detector with a rotating
# schedule seed — every run explores a different interleaving of the
# concurrent model tests. -short keeps the whole pass under two minutes;
# for a soak, run it in a loop or raise -count. Pin a failing schedule
# with KONA_STRESS_SEED=<seed> make stress.
KONA_STRESS_SEED ?= $(shell date +%s)
stress:
	KONA_STRESS_SEED=$(KONA_STRESS_SEED) $(GO) test -race -short -count=3 ./internal/core ./internal/cluster

# Fault-tolerance chaos pass (DESIGN.md §10, §13): the kill/repair/verify,
# two-groups-one-dead-node, crash-rejoin and migrate-under-load suites,
# the release-clears-guards histories on both fabrics, plus the
# replacement-engine and rate-limiter unit tests, under the race detector with a rotating
# workload seed — every run kills replicas at a different point in the
# access stream. Well under 60s. Pin a failing run with
# KONA_CHAOS_SEED=<seed> make chaos.
KONA_CHAOS_SEED ?= $(shell date +%s)
chaos:
	KONA_CHAOS_SEED=$(KONA_CHAOS_SEED) $(GO) test -race -count=1 \
		-run 'Chaos|Rejoin|Repair|ByteBudget|Migrat|Replace|NodeAccess|FailedUnseal|TwoGroupsOneDeadNode|ReleaseClears' ./internal/core ./internal/cluster ./internal/kv

# The ROADMAP's net-negative goal as a command: non-test lines in the
# packages it sets budgets for, then the core + cluster sum the goal is
# stated in. Then the knob count: the settable fields of each
# configuration struct, counted per field, not per line ("A, B float64"
# is two).
loc:
	@for d in internal/core internal/cluster internal/fpga internal/kv; do \
		echo "$$d $$(find $$d -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"; done
	@echo "core+cluster $$(find internal/core internal/cluster -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"
	@for s in core:Config fpga:Config kv:Config cluster:Transport cluster:ReplaceConfig; do \
		echo "$${s%%:*}.$${s#*:} fields $$(find internal/$${s%%:*} -name '*.go' ! -name '*_test.go' | xargs cat | \
		awk -v t="$${s#*:}" '$$0 ~ "^type " t " struct" {on = 1; next} on && /^}/ {on = 0} \
			on && NF && $$1 !~ /^\/\// {n++; for (i = 1; i < NF && $$i ~ /,$$/; i++) n++} END {print n + 0}')"; done

# KV service SLO guard (DESIGN.md §12): the fixed-seed open-loop zipfian
# run against kona-kvd on a full TCP rack — the tail must hold under the
# SLO, every acknowledged write must verify intact, and the fetch/evict
# counters must prove the values actually lived in remote memory.
kv-bench:
	$(GO) test -run 'TestKVBenchSLO' -count=1 -v ./internal/kv

# KV service soak (DESIGN.md §12): a longer mixed workload over the full
# TCP stack under the race detector. KONA_KV_SOAK sets the horizon.
KONA_KV_SOAK ?= 30s
kv-soak:
	KONA_KV_SOAK=$(KONA_KV_SOAK) $(GO) test -race -run 'TestKVSoak' -count=1 -v ./internal/kv

# Wire-path guard (DESIGN.md §11), counted, never timed: a payload is
# sent with no copy and received with at most one (out of the connection
# buffer its frame arrived in; a large log's tail lands in the log
# region directly), and one pooled 4 KB page fetch is one read and one
# write per end, three deadline calls in all and zero allocations, with
# frames decoding the same however the stream is cut. -benchmem shows
# allocs/op; the gob-era baseline was ~483 allocs and 3x-staged payloads
# per pooled read.
bench-wire:
	$(GO) test -run='TestWireEvictPathZeroCopies|TestPageFetchPathLength|TestLargeWriteLogBypassesBuffer|TestFrameDecodeAcrossPartialReads' -count=1 ./internal/cluster
	$(GO) test -run='^$$' -bench='BenchmarkWire' -benchmem -benchtime=100x ./internal/cluster

# Read-hit scaling at 1/2/4/8 application goroutines (DESIGN.md §9).
# Wall ns/op should drop with goroutines on a multi-core host; the
# vops/µs metric (aggregate virtual-time throughput) must scale ~linearly
# on any host, and every row must report 0 allocs/op.
bench-concurrent:
	$(GO) test -run='^$$' -bench='BenchmarkConcurrent' -benchmem -benchtime=1x ./internal/core

# Per-package coverage summary (tier-1 packages only; cmd mains are thin
# flag wrappers exercised by the daemons' own tests and smoke runs).
cover:
	$(GO) test -cover ./internal/... | sort

verify: vet build test race stress chaos bench-quick bench-telemetry bench-evict guards bench-concurrent bench-wire kv-bench kv-soak
