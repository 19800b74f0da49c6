GO ?= go

.PHONY: all build vet test race race-diffcheck trace-smoke check bench bench-smoke chaos-smoke examples benchmark-test digests

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The full CI gate, one target per CI step: compile, static checks,
# race-enabled tests, the solver diffcheck, the trace smoke, every example
# program, the chaos gates, one iteration of each solver benchmark, the
# benchmark module's own checks and the pinned benchmark workload digests.
check: build vet race race-diffcheck trace-smoke examples chaos-smoke bench-smoke benchmark-test digests

# Export a figure trace and a counter-rich feature trace, then validate
# both.
trace-smoke:
	$(GO) run ./cmd/univibench -quick -fig fig6a -trace /tmp/t.json > /dev/null
	$(GO) run ./cmd/univistor-sim -meta-shards 2 -meta-replicas 3 -meta-follower-reads -meta-split 1@1 \
		-dedup -ckpt 3 -trace /tmp/counters.json > /dev/null
	$(GO) run ./cmd/univistor-trace /tmp/t.json /tmp/counters.json

# Run each internal/sim and internal/kvstore benchmark once, so the solver
# and metadata-store benchmarks that performance changes quote keep
# building and running.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/sim ./internal/kvstore

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
# (striping in both regimes), must run to completion.
examples:
	for ex in quickstart tiering vpic workflow resilience; do \
		$(GO) run ./examples/$$ex > /dev/null || exit 1; \
	done
	$(GO) run ./cmd/univistor-explain -mode striping > /dev/null
	$(GO) run ./cmd/univistor-explain -mode striping -servers 4 -file 64GiB > /dev/null
	$(GO) run ./cmd/univistor-explain -mode va > /dev/null

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
# degradations reach the solver through RecomputeResources.
race-diffcheck:
	UNIVISTOR_SIM_DIFFCHECK=1 $(GO) test -race ./internal/sim/... ./internal/chaos/... ./internal/core/...
	UNIVISTOR_SIM_DIFFCHECK=1 $(GO) test ./internal/bench/...
	UNIVISTOR_SIM_DIFFCHECK=1 $(GO) run ./cmd/univibench -chaos-smoke -quick > /dev/null
