#!/usr/bin/env bash
# CI gate: everything a change must pass before merging.
#
# Usage:
#   scripts/ci.sh          # full gate (vet + race-enabled tests)
#   scripts/ci.sh -short   # quick local pre-push check
#
# The chaos equivalence suite (internal/chaos) runs as part of the normal
# test sweep; see docs/TESTING.md for reproducing a failing fault schedule
# from the seed in its failure message.
set -euo pipefail
cd "$(dirname "$0")/.."

short_flag=""
if [[ "${1:-}" == "-short" ]]; then
    short_flag="-short"
fi

# Formatting gate. bench/ is frozen by BENCHMARK.json, so it is not this
# gate's to fix.
echo "==> gofmt -l (outside bench/)"
unformatted=$(gofmt -l . | grep -v '^bench/' || true)
if [[ -n "${unformatted}" ]]; then
    echo "gofmt would change these files:" >&2
    echo "${unformatted}" >&2
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> go test -race ${short_flag} ./..."
go test -race ${short_flag} ./...

# Ordered-delivery stress: the two engine load tests once failed about one
# run in seven on two cores — concurrent sequencer flushes delivered batch
# N+1 to a node before batch N, and the node waited forever for the batch
# it had refused. The three completion tests ride in the same loop: who
# answers a client, and when, is a race between the committing node, the
# submitting node's scheduler and the transport, in both execution modes
# and both assemblies. A healthy run of all five takes ~0.2 s, so 100
# repetitions under -race on GOMAXPROCS=2 are cheap; the list guard fails
# loudly if a rename drops any test from the loop.
echo "==> ordered-delivery + completion stress (GOMAXPROCS=2, -race, 100x)"
stress_run='TestThroughputUnderLoadAllPolicies|TestSerializableCounters|TestCompletionNoticesOnReorderedBatch|TestConcurrentSubmitsThroughOnePlainFrontend|TestSubmitAfterStopFails'
listed=$(go test -list "${stress_run}" ./internal/engine | grep -c '^Test' || true)
if [[ "${listed}" -ne 5 ]]; then
    echo "ordered-delivery stress matched ${listed} of 5 engine tests: one was renamed or deleted" >&2
    exit 1
fi
GOMAXPROCS=2 go test -race -count=100 -run "${stress_run}" ./internal/engine

# Crash-recovery gate: reliable transport, node kill/restart, checkpoint+
# tail recovery, and the lossy+crash chaos schedules. The general sweep
# above already covers these when run full; this named step keeps the
# recovery claim pinned even under -short (see docs/RECOVERY.md).
echo "==> crash-recovery suite (-race)"
go test -race -count=1 \
    -run 'Reliable|Crash|Recover|Checkpoint|LossAndCrash|LossySchedule|TCPTransport' \
    ./internal/network ./internal/engine ./internal/chaos .

# Leader-failover gate: killing the total-order leader — alone and
# combined with the lossy + worker-crash schedule — must quiesce to node
# digests byte-identical to a fault-free run for every policy, with every
# transaction sequenced exactly once (see docs/RECOVERY.md, "Leader
# failover"). Pinned by name so it survives -short.
echo "==> leader-failover gate (-race)"
go test -race -count=1 \
    -run 'TestEquivalenceLeaderKill|TestLeaderKillSchedule|TestLeaderFailover|TestLeaderCrashValidation|TestGroup|TestFrontend' \
    ./internal/chaos ./internal/engine ./internal/sequencer .

# Telemetry-equivalence gate: tracing fully on vs fully off must quiesce
# to byte-identical node digests on every policy, including the lossy +
# mid-run-crash schedule — telemetry is an observer, never a participant
# (see docs/OBSERVABILITY.md). Pinned by name so it survives -short.
echo "==> telemetry-equivalence gate (-race)"
go test -race -count=1 -run 'TestTelemetryEquivalence' ./internal/chaos

# Observability gate: the cluster trace plane. Histogram correctness
# (bucket boundaries, concurrent-writer merge, quantile property test),
# the binary event-export wire format, the tail sampler, the multi-ring
# /trace merge, and the 3-process cluster trace export — schema-valid
# Perfetto output, >=99% committed txns with complete cross-process span
# chains, clock-aligned monotonic critical paths, and byte-identical
# cluster digests with export on vs off (see docs/OBSERVABILITY.md,
# "Cluster tracing"). Pinned by name so it survives -short; the list
# guard fails loudly if a rename ever empties the match set.
echo "==> observability gate (-race)"
obs_run='TestHist|TestPhase|TestTail|TestTrace|TestEventStream|TestSlowPhasesClockEndpoints'
listed=$(go test -list "${obs_run}" ./internal/telemetry | grep -c '^Test' || true)
if [[ "${listed}" -eq 0 ]]; then
    echo "observability gate matched no telemetry tests: the suite was renamed or deleted" >&2
    exit 1
fi
go test -race -count=1 -run "${obs_run}" ./internal/telemetry
cluster_trace_run='TestStitchTimelines|TestWritePerfettoSchema|TestClusterTraceExport|TestClusterTraceOnOffDigestEquivalence|TestNodeServerTraceEndpointsNoLeak|TestCollectTraceKilledWorker'
listed=$(go test -list "${cluster_trace_run}" ./internal/harness | grep -c '^Test' || true)
if [[ "${listed}" -eq 0 ]]; then
    echo "observability gate matched no harness trace tests: the suite was renamed or deleted" >&2
    exit 1
fi
go test -count=1 -timeout 10m ${short_flag} -run "${cluster_trace_run}" ./internal/harness

# Exec-equivalence gate: the queue-oriented zero-lock executor must quiesce
# to node digests byte-identical to the conservative lock manager for every
# routing policy, including the lossy + mid-run-crash and leader-kill
# schedules (see docs/PERF.md, "Queue-oriented execution"). Pinned by name
# so it survives -short.
echo "==> exec-equivalence gate (lock vs queue, -race)"
go test -race -count=1 \
    -run 'TestExecModeEquivalence|TestQueueMode' \
    ./internal/chaos ./internal/engine
go test -race -count=1 ./internal/qexec

# Disk-fault gate: the durability layer under injected storage faults.
# Covers the fault-injecting filesystem (torn/short writes, failed and
# lying fsyncs, power-cut truncation), the checksummed journal's recovery
# classification (torn tail vs corrupt frame), group-commit ack gating,
# and the chaos schedules that run every routing policy over live disk
# faults with offline crash-recovery checks (see docs/RECOVERY.md,
# "Durability"). Pinned by name so it survives -short; the list guard
# fails loudly if a rename ever empties the match set.
echo "==> disk-fault gate (-race)"
disk_run='TestDisk|TestJournal|TestWriteF|TestCrash|TestLyingSync|TestUnsyncedRename|TestInjectedWrite|TestWipeUnsynced|TestOSFS'
disk_pkgs="./internal/chaos ./internal/diskio ./internal/network"
listed=$(go test -list "${disk_run}" ${disk_pkgs} | grep -c '^Test' || true)
if [[ "${listed}" -eq 0 ]]; then
    echo "disk-fault gate matched no tests: the suite was renamed or deleted" >&2
    exit 1
fi
go test -race -count=1 -run "${disk_run}" ${disk_pkgs}

# Multi-process cluster e2e gate: boots real hermesd processes over
# loopback TCP, SIGKILLs and restarts a worker mid-run, and requires the
# final node digests byte-identical to the in-process twin for the same
# seed (see docs/CLUSTER.md). The tests skip themselves under -short —
# they spawn OS processes — so this step honors the quick pre-push mode.
# Set CLUSTER_E2E_ARTIFACTS to a directory to keep process logs from a
# failing run.
echo "==> cluster e2e gate (multi-process, TCP)"
go test -count=1 -timeout 10m ${short_flag} \
    -run 'TestClusterE2E|TestClusterKillRestart|TestClusterSIGTERMDrains|TestClusterDurableRestart|TestNodeServer|TestRunTwin' \
    . ./internal/harness

# Cluster netchaos gate: the self-healing acceptance run. Three real
# hermesd processes with every inter-process data link routed through the
# seeded fault proxy — asymmetric WAN latency, one mid-stream RST of the
# leader link, a 2s bidirectional partition that heals on its own — plus
# a SIGKILL that only the heartbeat supervisor repairs. The run must
# commit everything and quiesce to digests byte-identical to the
# fault-free in-process twin, with the child processes built -race
# (HERMESD_BUILD_RACE=1) so data races in the recovery paths surface
# here. The supervisor/backpressure unit suite rides along. Skips under
# -short (spawns OS processes); the list guard fails loudly if a rename
# ever empties the match set (see docs/CLUSTER.md, "Network faults & the
# supervisor").
echo "==> cluster netchaos gate (fault proxy + supervisor, -race children)"
netchaos_run='TestClusterNetChaos|TestSupervisor|TestClusterBackpressureCounters|TestPlane|TestWANProfile'
netchaos_pkgs=". ./internal/harness ./internal/netchaos"
listed=$(go test -list "${netchaos_run}" ${netchaos_pkgs} | grep -c '^Test' || true)
if [[ "${listed}" -eq 0 ]]; then
    echo "cluster netchaos gate matched no tests: the suite was renamed or deleted" >&2
    exit 1
fi
HERMESD_BUILD_RACE=1 go test -race -count=1 -timeout 15m ${short_flag} \
    -run "${netchaos_run}" ${netchaos_pkgs}

# Codec gate: the data plane (TCP frames, journal frames) is a hand-written
# binary codec; encoding/gob survives only in the cold checkpoint paths and
# in the frozen benchmark, and the guard keeps it from creeping back. The
# two fuzz targets replay their checked-in corpus in the sweep above; here
# each also mutates for 10 s (see docs/CLUSTER.md, "Wire and journal
# format"). The minimizer is capped at 1 s: left at its 60 s default it
# spends the whole smoke shrinking the first 2 KB input that finds new
# coverage and executes nothing else.
echo "==> codec gate (gob import guard + 10s fuzz smoke per target)"
gob_want=$'bench/probes.go\ninternal/durable/durable.go\ninternal/fusion/fusion.go'
gob_got=$(grep -rl --include='*.go' --exclude='*_test.go' '"encoding/gob"' . | sed 's|^\./||' | sort)
if [[ "${gob_got}" != "${gob_want}" ]]; then
    echo "non-test files importing encoding/gob changed; want exactly:" >&2
    echo "${gob_want}" >&2
    echo "got:" >&2
    echo "${gob_got}" >&2
    exit 1
fi
fuzz_targets='FuzzDecodeMessage FuzzMessageRoundTrip'
listed=$(go test -list 'FuzzDecodeMessage|FuzzMessageRoundTrip' ./internal/network | grep -c '^Fuzz' || true)
if [[ "${listed}" -ne 2 ]]; then
    echo "codec gate matched ${listed} of 2 fuzz targets: one was renamed or deleted" >&2
    exit 1
fi
for target in ${fuzz_targets}; do
    go test -run '^$' -fuzz "^${target}\$" -fuzztime 10s -fuzzminimizetime 1s ./internal/network
done

# Smoke-run the routing and link-layer benchmarks (1 iteration) so they
# can't silently rot; the routing cost is tracked by the core.route_* probes
# of `go run ./bench`, the link layer's acks/msg and writes/msg are read off
# BenchmarkLinkThroughput by hand (docs/PERF.md, "The link layer").
echo "==> go test -bench=BenchmarkPrescientRouting -benchtime=1x ./internal/core"
go test -run '^$' -bench=BenchmarkPrescientRouting -benchtime=1x ./internal/core
echo "==> go test -bench=BenchmarkLinkThroughput -benchtime=1x ./internal/network"
go test -run '^$' -bench=BenchmarkLinkThroughput -benchtime=1x ./internal/network

echo "==> CI gate passed"
