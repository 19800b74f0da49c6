GO ?= go

.PHONY: all build vet test race race-diffcheck trace-smoke check bench bench-smoke chaos-smoke examples benchmark-test digests

all: check

build:
	$(GO) build ./...

# Static checks: go vet, gofmt, and every defer open-coded (the compiler
# reports each defer it compiles; one that is not open-coded allocates its
# record on every call).
vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"
	test -z "$$($(GO) build -gcflags=-d=defer ./internal/... ./cmd/... 2>&1 | grep -v -e '^#' -e ': open-coded defer$$')"

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The full CI gate, one target per CI step: compile, static checks,
# race-enabled tests, the solver diffcheck, the trace smoke, every example
# program, the chaos gates, one iteration of each solver benchmark, the
# benchmark module's own checks and the pinned benchmark workload digests.
check: build vet race race-diffcheck trace-smoke examples chaos-smoke bench-smoke benchmark-test digests

# Export a figure trace, a counter-rich feature trace and a run that spills
# DRAM to the object tier, then validate all three. The traces go to a
# private temporary directory, removed on exit, so concurrent runs do not
# overwrite each other's files.
trace-smoke:
	set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/univibench -quick -fig fig6a -trace $$dir/t.json > /dev/null; \
	$(GO) run ./cmd/univistor-sim -meta-shards 2 -meta-replicas 3 -meta-follower-reads -chaos metasplit@1 \
		-dedup -ckpt 3 -trace $$dir/counters.json > /dev/null; \
	$(GO) run ./cmd/univistor-sim -procs 16 -ranks-per-node 8 -mb 8192 -seg-mb 64 -tiers object,dram \
		-read -flush -trace $$dir/tiers.json > /dev/null; \
	$(GO) run ./cmd/univistor-trace $$dir/t.json $$dir/counters.json $$dir/tiers.json

# Run each internal/sim, internal/kvstore, internal/metaplane,
# internal/striping, internal/lustre, internal/bb, internal/gateway,
# internal/logstore, internal/hdf5lite and internal/trace benchmark once, so
# the solver, metadata-store, commit-path, stripe-cutter, PFS-write, BB-write,
# gateway-op, log-recycling, collective-step and latency-ledger benchmarks
# that performance changes quote keep building and running; -benchmem prints
# each one's allocs/op.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem ./internal/sim ./internal/kvstore ./internal/metaplane ./internal/striping \
		./internal/lustre ./internal/bb ./internal/gateway ./internal/logstore ./internal/hdf5lite ./internal/trace

# The benchmark harness is its own module: vet and test it there.
benchmark-test:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Run every benchmark workload at both pinned seeds (8 runs) and fail unless
# each virtual-time outcome matches its digest in benchmark/digests.json.
digests:
	bash benchmark/run.sh -check

# Every figure workload under seeded fault injection with all invariant
# sweeps; exits non-zero on any violation.
chaos-smoke:
	$(GO) run -race ./cmd/univibench -chaos-smoke -quick

# Every facade-level example program, and both univistor-explain modes
# (striping in both regimes), must run to completion and print exactly
# its pinned stdout in examples/testdata. The outputs go to a private
# temporary directory, removed on exit.
examples:
	set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	for ex in quickstart tiering vpic workflow resilience; do \
		$(GO) run ./examples/$$ex > $$dir/example-$$ex.txt; \
		diff -u examples/testdata/$$ex.txt $$dir/example-$$ex.txt; \
	done; \
	$(GO) run ./cmd/univistor-explain -mode striping > $$dir/explain-striping.txt; \
	diff -u examples/testdata/explain-striping.txt $$dir/explain-striping.txt; \
	$(GO) run ./cmd/univistor-explain -mode striping -servers 4 -file 64GiB > $$dir/explain-striping-4.txt; \
	diff -u examples/testdata/explain-striping-4.txt $$dir/explain-striping-4.txt; \
	$(GO) run ./cmd/univistor-explain -mode va > $$dir/explain-va.txt; \
	diff -u examples/testdata/explain-va.txt $$dir/explain-va.txt

# Quick paper-figure sweep (simulated results). Host performance is
# measured by `bash benchmark/run.sh` (see benchmark/README.md).
bench:
	$(GO) run ./cmd/univibench -quick -all

# Race-enabled sim, chaos and core tests with the differential-check oracle
# armed, so the incremental solver is checked against the reference
# allocator on the storage system's real resource paths. The paper-figure
# sweeps then run armed without -race: their scheduler changes memory-port
# capacities, the second capacity-mutation site besides chaos. Last, every
# figure workload runs armed under the chaos schedule, whose capacity
# degradations reach the solver through RecomputeResources. The bench step
# also regenerates the committed results/ rows up to 128 ranks with the
# oracle armed (TestResultsReproduce). Last, the four host-benchmark
# workload shapes run armed at small scale.
race-diffcheck:
	UNIVISTOR_SIM_DIFFCHECK=1 $(GO) test -race ./internal/sim/... ./internal/chaos/... ./internal/core/...
	UNIVISTOR_SIM_DIFFCHECK=1 $(GO) test ./internal/bench/...
	UNIVISTOR_SIM_DIFFCHECK=1 $(GO) run ./cmd/univibench -chaos-smoke -quick > /dev/null
	cd benchmark && UNIVISTOR_SIM_DIFFCHECK=1 $(GO) test -run TestWorkloadsDeterministicAtSmallScale ./...
