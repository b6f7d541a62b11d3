# Development entry points.  `make check` is the gate every change must
# pass: vet, full build, full test suite, the race detector on the
# packages with the most concurrency (dispatch workers, scheduler,
# transport agent, metrics hot path), the short soaks, and the
# unlinked-code ratchet.

GO ?= go

# VMEM caps the address space of the non-race test runs at 3 GiB, so a
# runaway allocation dies with a Go stack trace that names it instead of
# being OOM-killed by the kernel.  The -race pass runs without it: the
# race runtime reserves far more address space than that.
VMEM := ulimit -v 3145728

.PHONY: check build test flake vet race cover soak-short fuzz unlinked bench bench-remote bench-cluster bench-eb bench-storage bench-gate benchall

check: vet build test race soak-short unlinked

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(VMEM) && $(GO) test ./...

# flake runs the tier-1 suite FLAKE_N times over, uncached, under the
# VMEM ceiling: green must mean green on every run (ROADMAP aim 3), and an
# intermittent failure only shows when the suite is repeated.  Every run's
# `go test -json` output is kept as flake/run-N.json; a red run prints the
# names and full output of its failed tests (cmd/flakereport) and the loop
# goes on, so the target reports how many of the FLAKE_N runs were red and
# fails if any was.
FLAKE_N ?= 10
flake:
	@mkdir -p flake; reds=0; \
	for i in $$(seq 1 $(FLAKE_N)); do \
		echo "flake: run $$i of $(FLAKE_N)"; \
		if ! ($(VMEM) && $(GO) test -count=1 -json ./... > flake/run-$$i.json 2> flake/run-$$i.stderr); then \
			reds=$$((reds + 1)); \
			echo "flake: run $$i red (flake/run-$$i.json)"; \
			cat flake/run-$$i.stderr; \
			$(GO) run ./cmd/flakereport flake/run-$$i.json; \
		fi; \
	done; \
	echo "flake: $$reds of $(FLAKE_N) runs red"; \
	test $$reds -eq 0

race:
	$(GO) test -race ./internal/executive/ ./internal/queue/ ./internal/pta/ ./internal/metrics/ ./internal/health/ ./internal/transport/tcp/ ./internal/transport/gm/ ./internal/transport/shm/ ./internal/cluster/ ./internal/chaos/ ./internal/daq/ ./internal/storage/ ./internal/controlplane/ ./internal/e2e/

# cover prints per-package statement coverage and enforces the floor on
# the control plane: the autopilot actuates live clusters, so its decision
# logic stays at >= 80% covered or the build goes red.
COVER_FLOOR ?= 80
cover:
	$(GO) test -cover ./...
	@$(GO) test -coverprofile=/tmp/xdaq_cover_cp.out ./internal/controlplane/ > /dev/null; \
	pct=$$($(GO) tool cover -func=/tmp/xdaq_cover_cp.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	echo "controlplane coverage: $$pct% (floor $(COVER_FLOOR)%)"; \
	awk "BEGIN { exit !($$pct >= $(COVER_FLOOR)) }" || { echo "controlplane coverage $$pct% is below the $(COVER_FLOOR)% floor"; exit 1; }

# soak-short is the CI face of the chaos harness (see doc/testing.md):
# six short seeded soaks under the race detector, one per cluster shape —
# kill+failover on the mixed fabric, heavy wire faults on batched TCP,
# dispatcher rescales under load on loopback, a loopback run that kills a
# builder unit mid-round and audits the shard-map rebalance, a loopback
# run that crashes a storage writer mid-replay and audits the recovered
# stripes for exactly-once persistence, and a loopback run where a device
# turns hot, the autopilot must rescale it (then dies on the last round,
# auditing graceful degradation).  xdaqsoak exits nonzero the moment any
# invariant checker reports, printing the seed and trace rings, so a red
# soak-short is reproducible with the seed it prints.
soak-short:
	$(GO) run -race ./cmd/xdaqsoak -seed 101 -duration 5s -rounds 3 -fabric gm+tcp -faults light -q
	$(GO) run -race ./cmd/xdaqsoak -seed 202 -duration 5s -rounds 3 -fabric tcp -faults heavy -kill=false -q
	$(GO) run -race ./cmd/xdaqsoak -seed 303 -duration 5s -rounds 3 -fabric loopback -faults none -kill=false -q
	$(GO) run -race ./cmd/xdaqsoak -seed 404 -duration 5s -rounds 3 -fabric loopback -faults none -kill=false -killbu -q
	$(GO) run -race ./cmd/xdaqsoak -seed 505 -duration 5s -rounds 3 -fabric loopback -faults none -kill=false -killsw -q
	$(GO) run -race ./cmd/xdaqsoak -seed 606 -duration 5s -rounds 3 -fabric loopback -faults none -kill=false -hotdev -killcp -q

# fuzz gives each fuzz target a short exploration budget on top of its checked-in
# seed corpus; lengthen with FUZZTIME=1m for a real session.  Every func Fuzz*
# in the tree must have a line here (TestMakeFuzzRunsEveryTarget).
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/i2o/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeAcquired$$' -fuzztime $(FUZZTIME) ./internal/i2o/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeParams$$' -fuzztime $(FUZZTIME) ./internal/i2o/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeFail$$' -fuzztime $(FUZZTIME) ./internal/i2o/
	$(GO) test -run '^$$' -fuzz '^FuzzSGLRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/sgl/
	$(GO) test -run '^$$' -fuzz '^FuzzWireRecords$$' -fuzztime $(FUZZTIME) ./internal/daq/
	$(GO) test -run '^$$' -fuzz '^FuzzSegment$$' -fuzztime $(FUZZTIME) ./internal/storage/
	$(GO) test -run '^$$' -fuzz '^FuzzPolicy$$' -fuzztime $(FUZZTIME) ./internal/controlplane/
	$(GO) test -run '^$$' -fuzz '^FuzzEval$$' -fuzztime $(FUZZTIME) ./internal/tclish/
	$(GO) test -run '^$$' -fuzz '^FuzzSplitList$$' -fuzztime $(FUZZTIME) ./internal/tclish/

# unlinked is the dead-code ratchet: it builds every binary (cmd/*,
# examples/*, bench and a stub holding the xdaq API) with inlining off and
# fails when a non-test function that none of them links is missing from
# cmd/unlinked/allowlist.txt, or when an allowlisted one is linked again.
# A cold build of all binaries takes about 45 s on 2 vCPUs, which is why it
# runs in `make check` and not in the tier-1 `go test`.
unlinked:
	$(GO) run ./cmd/unlinked

# bench runs the dispatch-engine benchmarks (hot-path allocations, worker
# scaling, watchdog overhead, event builder) and archives the numbers as
# JSON for before/after comparison.
bench:
	$(GO) test -run '^$$' -bench 'Dispatch|EventBuilder|Watchdog' -benchmem . \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson > BENCH_dispatch.json

# bench-remote runs the remote data-path benchmarks (batched send path,
# request/reply latency sweep, throughput under concurrent senders) and
# archives them as JSON.  The committed archive still carries the rows of
# the unbatched baseline, which no longer exists in the tree.
# -count 5 because single runs are hostage to machine-wide load drift:
# benchjson collapses the five samples per benchmark to their median,
# which is what BENCH_remote.json records (see doc/performance.md).
# Merge with other archives via `go run ./cmd/benchjson a.json b.json`.
bench-remote:
	$(GO) test -run '^$$' -bench 'Remote' -benchmem -count 5 -timeout 60m ./internal/transport/tcp/ \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson > BENCH_remote.json

# bench-cluster runs the multi-process deployment benchmarks: each spawns
# real child processes (internal/proc re-execs its test binary as cluster
# members), so the numbers include genuine process-boundary costs —
# cross-process request/reply latency over sockets, and shm-ring vs
# loopback-TCP throughput for colocated processes.  The chaos package
# contributes the control-plane pair: round trips against a node with a
# hot device, with and without the autopilot rescaling it.  Median of 5
# runs, as in bench-remote.
bench-cluster:
	($(GO) test -run '^$$' -bench 'Cluster' -benchmem -count 5 -timeout 30m ./internal/proc/ && \
	 $(GO) test -run '^$$' -bench 'ClusterSkewedLoad' -benchmem -count 5 -timeout 30m ./internal/chaos/) \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson > BENCH_cluster.json

# bench-eb runs the event-builder scaling sweep — flat vs hierarchical
# wiring at 4..256 readout units — and archives the median of 5 runs as
# BENCH_eb.json (see doc/performance.md).
bench-eb:
	$(GO) test -run '^$$' -bench 'EventBuilder' -benchmem -count 5 -timeout 60m . \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson > BENCH_eb.json

# bench-storage runs the striped-storage writer benchmarks: the
# single-stripe append hot path (gated at zero allocations per record)
# and the striping sweep at 1/2/4/8 writers over a simulated per-stripe
# disk (SimDelay; see doc/storage.md for why real fsync is not bench
# material on a shared host).  Median of 5 runs, as in bench-remote.
bench-storage:
	$(GO) test -run '^$$' -bench 'Storage' -benchmem -count 5 -benchtime 200x -timeout 30m ./internal/storage/ \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson > BENCH_storage.json

# bench-gate holds the archived performance claims: the hierarchical
# event builder must beat the flat one at high readout counts
# (BENCH_eb.json; at small counts the tree's extra hop is allowed to
# cost), eight storage stripes must deliver at least twice the throughput
# of one (BENCH_storage.json, the -min 1.0 floor), and the autopilot must
# at least double round-trip throughput against a hot device versus a
# cluster left at one dispatcher (BENCH_cluster.json).  The remote data
# path is held by the end-to-end benchmark instead (BENCHMARK.json,
# bench/).  Regenerate the archives with `make bench-eb bench-storage
# bench-cluster` first.  GATE_TOL forgives slowdowns inside the band,
# e.g. GATE_TOL=0.05 tolerates 5%.
GATE_TOL ?= 0
bench-gate:
	$(GO) run ./cmd/benchjson -compare -pair 'topo=tree:topo=flat' -grep 'rus=(64|256)$$' -tol $(GATE_TOL) BENCH_eb.json
	$(GO) run ./cmd/benchjson -compare -pair 'writers=8:writers=1' -min 1.0 -tol $(GATE_TOL) BENCH_storage.json
	$(GO) run ./cmd/benchjson -compare -pair 'autopilot=on:autopilot=off' -min 1.0 -tol $(GATE_TOL) BENCH_cluster.json

# benchall regenerates every archive and merges them into one document
# (benchjson's merge mode tags each result with its source package), so
# BENCH_all.json is the single cross-package snapshot of a host.
benchall: bench bench-remote bench-cluster bench-eb bench-storage
	$(GO) run ./cmd/benchjson BENCH_dispatch.json BENCH_remote.json BENCH_cluster.json BENCH_eb.json BENCH_storage.json > BENCH_all.json
