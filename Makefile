# Convenience targets; everything is plain `go` underneath (stdlib only).

GO ?= go

.PHONY: all build test test-short test-race vet check-gates bench bench-reconverge bench-bgp bench-addr bench-hop bench-gate alloc-gate fuzz-short verify-parallel verify-scaling verify-survivability verify-intent verify-snapshot verify-controlplane verify-interas cover examples record clean

all: build vet check-gates test test-race fuzz-short verify-intent verify-snapshot verify-controlplane verify-interas verify-scaling bench-reconverge bench-gate

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	@test -z "$$(gofmt -l .)" || { echo "gofmt -l . lists:"; gofmt -l .; exit 1; }

# The gates below select their tests with hand-kept -run patterns, and a
# term that matches nothing fails nothing: PR 14 found a gate that had never
# run the tests it named. For every quoted -run pattern in this file, each
# |-separated term must match a test in at least one package listed beside it.
check-gates:
	@awk '/\\$$/ { sub(/\\$$/, ""); printf "%s", $$0; next } { print }' Makefile | grep -e "-run=['][^^]" | while read -r line; do \
		pkgs=$$(echo "$$line" | tr ' \t' '\n\n' | grep '^\./'); \
		tests=$$($(GO) test -list . $$pkgs | grep -E '^(Test|Fuzz|Example)') || exit 1; \
		for term in $$(echo "$$line" | sed "s/.*-run=[']\([^']*\)['].*/\1/" | tr '|' ' '); do \
			echo "$$tests" | grep -Eq -e "$$term" || { echo "check-gates: -run term '$$term' matches no test in" $$pkgs; exit 1; }; \
		done; \
	done

test:
	$(GO) test ./...

# Short mode skips the 200-site scale test and the churn soak.
test-short:
	$(GO) test -short ./...

# Race detector over the short suite; the simulation is single-goroutine by
# design, so this guards the test harness and any future concurrency. The
# reflector-churn equivalence proof and the AS-failover serial-vs-8-shard
# equivalence proof run explicitly: -short would skip the seeded loops they
# depend on.
test-race:
	$(GO) test -race -short ./...
	$(GO) test -race -count=1 -run='TestClusteredEquivalenceUnderChurn' ./internal/bgp
	$(GO) test -race -count=1 -run='TestASFailoverEquivalence' ./internal/chaos

# Every benchmark, among them the checkpoint alone at the repository
# benchmark's shapes, write and read apart: BenchmarkCheckpointMesh1000x100
# (vpnv4_100k's SaveState/LoadState) and BenchmarkCheckpointPop147
# (pop147_churn's Snapshot/Restore).
bench:
	$(GO) test -bench=. -benchmem ./...

# Reconvergence is the unit of work every injected fault triggers; track
# both branches: BenchmarkReconverge (full: node crash, untracked cause),
# BenchmarkReconvergeLinkFlap (incremental: what a link flap costs) and
# BenchmarkReconvergeLinkFlapTE (the same with 48 TE intents to keep or move);
# and what the full branch spends below core at the repository benchmark's
# 7x7+98 grid: BenchmarkConvergePop147 (147 LSAs flooded, 147 full SPFs) and
# BenchmarkLDPOrderedPop147 (147 x 146 LSPs flooded from nothing).
bench-reconverge:
	$(GO) test -run='^$$' -bench='BenchmarkReconverge|BenchmarkConvergePop147|BenchmarkLDPOrderedPop147' -benchmem \
		./internal/core ./internal/ospf ./internal/ldp

# The BGP layer at the repository benchmark's vpnv4_100k shape: ns/update of
# Converge and B/route of the converged mesh, with `go test -bench` alone.
bench-bgp:
	$(GO) test -run='^$$' -bench=BenchmarkClustered1000x100 -benchtime=5x ./internal/bgp

# The forwarding table at the shapes that matter: vrf20 (what a PE ingress
# looks up per customer packet, on one hot table and across 160), rand1k and
# rand100k (E4's and the benchmark probes' shape, hits and misses apart),
# and what building each costs in time and allocations.
bench-addr:
	$(GO) test -run='^$$' -bench=BenchmarkTable -benchmem ./internal/addr

# The three index operations of an uncongested packet-hop, each alone: the
# event queue's hold cost at depth 256/4096/65536 (every delay inside the
# wheel's window, and a near/far mix through the far heap), what an idle port
# pays its scheduler (Pass against the Enqueue+Dequeue it replaced, hybrid
# and FIFO, one hot scheduler and 470 round-robin), and the ILM lookup and
# swap (1,000 labels, one hot LFIB and 470 round-robin).
bench-hop:
	$(GO) test -run='^$$' -bench='BenchmarkQueueHold|BenchmarkSchedulerIdle|BenchmarkILM' ./internal/sim ./internal/qos ./internal/mpls

# The allocation-budget tests alone: every hot-path component must be
# zero-alloc at steady state (label stack ops, table lookups, Router.Receive,
# scheduler enqueue/dequeue and Pass, engine Post, and the full netsim per-hop path),
# and a forwarding table is built in a handful of allocations.
alloc-gate:
	$(GO) test -count=1 -run='ZeroAlloc|TestPoolingInvisibleToResults|TestTableFootprint' \
		./internal/packet ./internal/addr ./internal/sim ./internal/qos ./internal/device ./internal/netsim

# The performance regression gate: the zero-alloc tests above, then a
# measured perf snapshot (E4 lookup cost, 200-site data-plane PPS and
# allocation rate, E15 event throughput) written to BENCH_<n>.json and
# compared benchstat-style against the previous snapshot. Fails on an
# allocation-budget violation or a large throughput regression.
bench-gate: alloc-gate
	$(GO) run ./cmd/vpnbench -perf -gate

# The serial-vs-parallel equivalence harness under the race detector: every
# scenario (QoS mesh, bottleneck drops, failure reconvergence, extranet,
# scripted chaos) must be byte-identical at 1/2/8 shards and at any worker
# count. This is the acceptance gate for the sharded engine.
verify-parallel:
	$(GO) test -race -count=1 \
		-run='TestSerialParallelEquivalence|TestParallelWorkerInvariance|TestShardedAIMDDeterministic|TestChaosScript' \
		./internal/core ./internal/chaos
	$(GO) test -race -count=1 ./internal/sim ./internal/topo

# The parallel-performance acceptance gate under the race detector: the
# pair-lookahead matrix property tests (oracle equality + degenerate
# uniform-quantum byte-equality), the worker x GOMAXPROCS invariance sweep,
# and the serial-vs-sharded equivalence scenarios. Then a quick E22 sweep
# (GOMAXPROCS 1 and NumCPU x shards 1/8) to confirm the scaling curve
# still produces identical fingerprints on this host.
verify-scaling:
	$(GO) test -race -count=1 \
		-run='TestWorkerGomaxprocsInvariance|TestUniformQuantumMatchesPairMatrix|TestSerialParallelEquivalence' \
		./internal/core
	$(GO) test -race -count=1 -run='TestPairDelay' ./internal/topo
	$(GO) test -race -count=1 -run='TestLookahead|TestPairMatrix|TestHandoffBelowPairBound|TestRunOnShards|TestSetLookahead' ./internal/sim
	$(GO) run ./cmd/vpnbench -e e22 -gomaxprocs 1 -shards 1,8

# The control-plane survivability acceptance gate under the race detector:
# graceful-restart E16 (crash storm with GR on vs off), the GR edge-case
# and damping tests, and the survivability serial-vs-parallel equivalence.
verify-survivability:
	$(GO) test -race -count=1 \
		-run='TestE16|TestGRTimer|TestDoubleRestartWithinWindow|TestSessionLossWithoutGR|TestMBBReoptimize|TestCtrlLossCompounds|TestGraceful|TestSurvivability|TestDamping' \
		./internal/experiments ./internal/core ./internal/chaos ./internal/bgp

# The intent-plane acceptance gate under the race detector: spec round
# trip, reconciler convergence, the kill-mid-commit / kill-pre-commit
# digest-equality proofs (direct and chaos-scripted), session transaction
# semantics, and the E18 provisioning-crash scorecard.
verify-intent:
	$(GO) test -race -count=1 \
		-run='TestSpec|TestStore|TestReconciler|TestKill|TestChaosScriptedKill|TestQuarantine|TestSession|TestValidate|TestCommit|TestConfirmed|TestClose|TestConcurrent|TestRemoveAdd|TestE18' \
		./internal/intent ./internal/netconf ./internal/experiments

# Ten seconds each on the text-input parsers — the netconf config loader,
# the chaos scenario DSL (generic, plus the survivability/damping knobs),
# and the intent spec language (round-trip contract) — on the two
# binary ones: the checkpoint container, and the section payloads of real
# checkpoints fed to Backbone.Restore, InterAS.Restore and Mesh.LoadState —
# on the forwarding table, an operation stream against the naive model — and
# on the event queue, an operation stream against the bare heap it replaced.
fuzz-short:
	$(GO) test -run='^$$' -fuzz=FuzzLoad -fuzztime=10s ./internal/netconf
	$(GO) test -run='^$$' -fuzz=FuzzScenario -fuzztime=10s ./internal/chaos
	$(GO) test -run='^$$' -fuzz=FuzzSurvivability -fuzztime=10s ./internal/chaos
	$(GO) test -run='^$$' -fuzz=FuzzIntentSpec -fuzztime=10s ./internal/intent
	$(GO) test -run='^$$' -fuzz=FuzzSnapshotDecode -fuzztime=10s ./internal/snapshot
	$(GO) test -run='^$$' -fuzz=FuzzRestoreSection -fuzztime=10s ./internal/chaos
	$(GO) test -run='^$$' -fuzz=FuzzTableOps -fuzztime=10s ./internal/addr
	$(GO) test -run='^$$' -fuzz=FuzzQueueOps -fuzztime=10s ./internal/sim

# The checkpoint/restore acceptance gate under the race detector: the
# restore-equivalence contract (run-to-T + snapshot + restore + run-to-end
# byte-identical to uninterrupted, serial and sharded), retry/damping state
# carried across the boundary, the recorded wire-format pins, the per-section
# hostile-input sweep, the declared element minimums, what a second Snapshot
# and a refused LoadState may allocate, the field ledger of the "bgp"
# section's types, the crash-recovery Runner (incl. torn checkpoints),
# bisection, the codec/store/framer unit tests, and the E19 day-in-the-life
# soak. The pattern names what a checkpoint test
# is about, not where it lives, and runs over every package, so a renamed or
# new one cannot fall out of the gate.
verify-snapshot:
	$(GO) test -race -count=1 \
		-run='Snapshot|Restore|LoadState|Checkpoint|Runner|Bisect|ElementMinimums|TestE19' \
		./internal/...
	$(GO) test -race -count=1 ./internal/snapshot

# The scalable-control-plane acceptance gate under the race detector: the
# reflection oracle (clustered best paths == full-mesh under seeded churn),
# the RIB oracle (sorted runs == the map model, every observable, all three
# layouts) and the single-reflector stale-refresh reproducer,
# the incremental SPF/CSPF and LDP-delta oracles (identical tables to a
# full recompute across random flap sequences), the TE-delta oracles (the
# dirty-set re-signal ≡ the full sweep across 208 flap sequences, its named
# fallbacks, the provider-only path scope, a clean LSP untouched by someone
# else's fault, the overtaken detection timer, no local repair around a link
# already back, rsvp's batch primitives), the
# RT-constrained update-volume and loop-prevention contracts, the
# reflector/ISPF chaos-boundary restore proof at 1/8 shards, and the E20
# scaling scorecard.
verify-controlplane:
	$(GO) test -race -count=1 \
		-run='TestClustered|TestRTConstrained|RIB|SingleReflector|TestISPF|TestIncremental|TestCSPF|TestClusterPEs|TestTEDeltaMatchesFullSweep|TestTESweepFallbackReasons|TestTELSPNeverTransitsCustomer|TestCleanLSPLosesNothing|TestOverlappingDetectionWindows|TestLocalRepairSkipsRestoredLink|TestReleaseIsSilent|TestRebindReleases|TestReflectorSnapshotBoundary|TestE20' \
		./internal/bgp ./internal/ospf ./internal/ldp ./internal/topo ./internal/rsvp ./internal/core ./internal/chaos ./internal/experiments

# The inter-AS survivability acceptance gate under the race detector: the
# RFC 4364 option A/B/C delivery and failover unit tests, the mid-GR
# peer-AS-outage snapshot boundary proof at 0/1/8 shards, the AS-failover
# serial-vs-8-shard equivalence, the asfail/asrestore DSL surface, and the
# E21 three-carrier outage scorecard.
verify-interas:
	$(GO) test -race -count=1 \
		-run='TestInterAS|TestASFailoverEquivalence|TestParseScenarioASDirectives|TestParseScenarioErrorPaths|TestE21' \
		./internal/core ./internal/chaos ./internal/experiments

cover:
	$(GO) test -cover ./internal/...

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/extranet
	$(GO) run ./examples/voicesla
	$(GO) run ./examples/scalability
	$(GO) run ./examples/multicarrier
	$(GO) run ./examples/backbone
	$(GO) run ./examples/paperfigs
	$(GO) run ./examples/intent

# Regenerate the recorded outputs referenced by EXPERIMENTS.md / README.
record:
	$(GO) test ./... 2>&1 | tee test_output.txt
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt
	$(GO) run ./cmd/vpnbench -dur 5s

clean:
	$(GO) clean ./...
