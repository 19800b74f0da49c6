GO ?= go

.PHONY: all build vet test race race-diffcheck check bench chaos-smoke examples

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

# The full CI gate: compile, static checks, race-enabled tests, chaos
# gates, and every example program.
check: build vet race chaos-smoke examples

# Every figure workload under seeded fault injection with all invariant
# sweeps; exits non-zero on any violation.
chaos-smoke:
	$(GO) run -race ./cmd/univibench -chaos-smoke -quick

# Every facade-level example program, and both univistor-explain modes,
# must run to completion.
examples:
	for ex in quickstart tiering vpic workflow resilience; do \
		$(GO) run ./examples/$$ex > /dev/null || exit 1; \
	done
	$(GO) run ./cmd/univistor-explain -mode striping > /dev/null
	$(GO) run ./cmd/univistor-explain -mode va > /dev/null

# Quick paper-figure sweep (simulated results). Host performance is
# measured by `bash benchmark/run.sh` (see benchmark/README.md).
bench:
	$(GO) run ./cmd/univibench -quick -all

# Race-enabled sim, chaos and core tests with the differential-check oracle
# armed, so the incremental solver is checked against the reference
# allocator on the storage system's real resource paths.
race-diffcheck:
	UNIVISTOR_SIM_DIFFCHECK=1 $(GO) test -race ./internal/sim/... ./internal/chaos/... ./internal/core/...
