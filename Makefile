GO ?= go

.PHONY: all build vet test race race-diffcheck check bench chaos-smoke meta-smoke dedup-smoke gateway-smoke split-smoke

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The full CI gate: compile, static checks, race-enabled tests, chaos gates.
check: build vet race chaos-smoke meta-smoke dedup-smoke gateway-smoke split-smoke

# Every figure workload under seeded fault injection with all invariant
# sweeps; exits non-zero on any violation.
chaos-smoke:
	$(GO) run -race ./cmd/univibench -chaos-smoke -quick

# Metadata-plane chaos gate: a 3-shard, R=3 plane under metacrash faults
# (every shard's leader crashed mid-run, one with a recovery window),
# across three seeds. univistor-sim exits 1 on any invariant violation —
# including the plane's no-lost-committed-record and coverage checks.
meta-smoke:
	for seed in 1 2 3; do \
		$(GO) run ./cmd/univistor-sim -procs 16 -ranks-per-node 8 -mb 16 -seg-mb 4 \
			-read -meta-shards 3 -meta-replicas 3 \
			-chaos "seed=$$seed,check=0.2,horizon=3,metacrash=0@0.05+0.4,metacrash=1@0.1,metacrash=2@0.15+0.5" \
			> /dev/null || exit 1; \
	done
	@echo "meta-smoke: all invariants held across 3 seeds"

# Dedup chaos gate: the checkpoint workload with the content-addressed
# store enabled, a metadata-shard leader crash, and a node crash pinned at
# t=15.045s — inside the collector's second flow window (traced at
# 15.037–15.060s for this config) — so a GC batch is always in flight when
# the fault lands. Three seeds; univistor-sim exits 1 if any CAS
# conservation, refcount, or coverage invariant breaks.
dedup-smoke:
	for seed in 1 2 3; do \
		$(GO) run ./cmd/univistor-sim -procs 16 -ranks-per-node 8 -mb 16 -seg-mb 4 \
			-dedup -ckpt 5 -ckpt-retain 2 -meta-shards 3 -meta-replicas 3 \
			-chaos "seed=$$seed,check=0.2,horizon=3,metacrash=0@6.5,metacrash=1@8.2,crash=1@15.045" \
			> /dev/null || exit 1; \
	done
	@echo "dedup-smoke: CAS invariants held across 3 seeds with mid-GC crash"

# Gateway chaos gate: the multi-tenant QoS mix driven open-loop into
# overload (arrivals well past the per-tenant sustained rate) on a 3-shard
# replicated metadata plane, with a shard-leader metacrash landing mid-run.
# The chaos sweep patrols the gateway's admission invariants (token
# balances, quotas, flow-group accounting) alongside the system's. Three
# seeds; univistor-sim exits 1 on any violation.
gateway-smoke:
	for seed in 1 2 3; do \
		$(GO) run ./cmd/univistor-sim -gateway -tenants 32 -qos -zipf 1.4 \
			-gw-arrival 12 -gw-seconds 2 -gw-seed $$seed \
			-meta-shards 3 -meta-replicas 3 \
			-chaos "seed=$$seed,check=0.2,horizon=4,metacrash=0@0.4+0.5,metacrash=1@0.8" \
			> /dev/null || exit 1; \
	done
	@echo "gateway-smoke: gateway + system invariants held across 3 seeds under overload and metacrash"

# Online-split chaos gate: a gateway open-loop stat storm on a 3-shard,
# R=3 plane with leased follower reads, an online shard split starting at
# t=0.2, and the split target's neighbourhood hit by a shard-leader
# metacrash at t=0.25 — inside the migration's transfer window for this
# config — so failover, lease revocation and arc forwarding all land
# mid-split. Three seeds; univistor-sim exits 1 on any invariant
# violation (ledger, coverage, lease staleness, split bookkeeping).
split-smoke:
	for seed in 1 2 3; do \
		$(GO) run ./cmd/univistor-sim -gateway -tenants 16 -gw-arrival 400 \
			-gw-seconds 0.6 -gw-kb 8 \
			-meta-shards 3 -meta-replicas 3 -meta-follower-reads \
			-meta-split "1@0.2" \
			-chaos "seed=$$seed,check=0.1,horizon=0.7,metacrash=1@0.25" \
			> /dev/null || exit 1; \
	done
	@echo "split-smoke: online split + leased reads held across 3 seeds with mid-window metacrash"

# Quick paper-figure sweep (simulated results). Host performance is
# measured by `bash benchmark/run.sh` (see benchmark/README.md).
bench:
	$(GO) run ./cmd/univibench -quick -all

# Race-enabled sim + chaos tests with the differential-check oracle armed,
# so the concurrent solver is exercised against the reference allocator.
race-diffcheck:
	UNIVISTOR_SIM_DIFFCHECK=1 $(GO) test -race ./internal/sim/... ./internal/chaos/...
