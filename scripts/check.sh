#!/usr/bin/env bash
# Pre-PR gate: formatting, vet, and race-stressed tests for the packages
# with the most concurrency (cluster coordination, node runtime, erasure
# coding, metrics collection, the iod network service). Run from the repo
# root before sending a PR; the full suite is still `go test ./...`.
set -euo pipefail

cd "$(dirname "$0")/.."

unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...

# stress PATTERN PKG... runs `go test -race -count=2 -run PATTERN` over the
# packages, after checking that every |-separated alternative of PATTERN
# names at least one test there: a renamed test must fail the gate, not
# silently drop out of its stress list.
stress() {
    local pattern=$1
    shift
    local names alt
    names=$(go test -list '.*' "$@" | grep -E '^(Test|Fuzz|Example)')
    IFS='|' read -ra alts <<< "$pattern"
    for alt in "${alts[@]}"; do
        if ! grep -Eq -- "$alt" <<< "$names"; then
            echo "check.sh: -run alternative '$alt' matches no test in $*" >&2
            exit 1
        fi
    done
    go test -race -count=2 -run "$pattern" "$@"
}

go test -race ./internal/cluster/... ./internal/node/... ./internal/erasure/... \
    ./internal/metrics/... ./internal/iod/... ./internal/faultinject/... \
    ./internal/shardstore/... ./internal/gateway/...

# Membership drain controller under the race detector, re-run explicitly:
# join/decommission mid-drain, the restart-blind inventory repair, and the
# mover-vs-stream void protocol are the riskiest interleavings in the
# tree, so they get their own -count=2 stress on top of the package run.
stress 'TestShardClusterMembership|TestAddBackend|TestDecommission|TestRestartBlindRepair|TestRebalanceMover' \
    ./internal/cluster/ ./internal/shardstore/

# Membership chaos experiment: a backend joins and another is
# decommissioned while a live multi-rank drain is in flight; zero lost
# restart lines, the leaver ends empty, and a fresh client's
# inventory-driven repair restores R copies.
go run ./cmd/ndpcr-experiments -quick membership > /dev/null
echo "check.sh: membership experiment green"

# Ack levels and the durability wait under the race detector, re-run
# explicitly: the tracker's waiter lifecycle (wake, close, abandonment,
# discarded IDs), the admission-controlled commit, deferred aborts in
# background propagation, the QoS drain scheduler, sessions opening over
# a shared store mid-drain, and the gateway's save-settle/shutdown paths
# get their own -count=2 stress on top of the package run above.
stress 'TestTracker|TestEngineAbandoned|TestEngineStopDuringWait|TestEngineDrainRetry|TestDiscardedCheckpoint|TestWaitAdmit|TestCommitAcks|TestCommitAdmission|TestCommitBackpressure|TestCloseUnblocks|TestCheckpointAck|TestAsync|TestDrainScheduler|TestSessionsOpenWhileDrainsRun|TestSyncSaveShutdown|TestSyncOverride|TestDurabilityEndpoint' \
    ./internal/node/... ./internal/cluster/ ./internal/gateway/

# Elastic restore planner under the race detector, re-run explicitly:
# the N→M recovery path (parallel per-target plan execution, restart-line
# fallback mid-reshape, post-recovery ID resync) and the gateway restore
# endpoint are fresh concurrency, so they get their own -count=2 stress
# on top of the package runs above.
stress 'TestElasticRecover|TestRecoverPinnedLine|TestPlanShards|TestSplitMerge|TestRestorePlanAndMembers|TestResumeFallsBack' \
    ./internal/cluster/... ./internal/gateway/

# Elastic restart experiment: a job checkpointed at N=8 over 3 live iod
# backends (R=2) restarts at M=4 and M=12 through the restore planner —
# merged state byte-identical both ways, and the poisoned newest line
# forces a restart-line fallback mid-reshape.
go run ./cmd/ndpcr-experiments -quick elastic > /dev/null
echo "check.sh: elastic experiment green"

# Async chaos experiment: an async-ack gateway over 3 live iod backends
# (R=2) loses one backend while acked checkpoints are still propagating;
# every acked ID must reach store durability or be reported failed —
# zero silent losses.
go run ./cmd/ndpcr-experiments -quick asyncchaos > /dev/null
echo "check.sh: asyncchaos experiment green"

# Wire-version compat matrix under the race detector, re-run explicitly:
# v2<->v2, v2 client -> v1 server (gob downgrade), v1 client -> v2 server,
# and the corruption/checksum recovery paths. A mixed-version fleet rides
# on exactly these transitions, so they get their own -count=2 stress on
# top of the package run above.
stress 'TestCompat|TestCorruptFault|TestServerRejectsCorrupt' \
    ./internal/iod/

# Transport benchmarks: regenerates BENCH_iod.json and fails if lane
# scaling or the streamed-restore win regressed.
scripts/bench_iod.sh

# Shard-tier benchmarks: regenerates BENCH_shard.json and fails if drain
# throughput stopped scaling with the backend count.
scripts/bench_shard.sh

# Gateway benchmarks: regenerates BENCH_gateway.json and fails if the
# multi-tenant front door collapses under 64 concurrent tenants.
scripts/bench_gateway.sh

echo "check.sh: all green"
