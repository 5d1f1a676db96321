#!/usr/bin/env bash
# CI gate: everything a change must pass before merging.
#
# Usage:
#   scripts/ci.sh                  # every gate, in order
#   scripts/ci.sh -short           # quick local pre-push check
#   scripts/ci.sh [-short] GATE... # just the named gates
#   scripts/ci.sh -list            # the gate names, in order
#
# .github/workflows/ci.yml runs each gate as its own step
# (`scripts/ci.sh <gate>`), so every gate runs exactly once per push. The
# chaos equivalence suite (internal/chaos) runs as part of the normal test
# sweep; see docs/TESTING.md for reproducing a failing fault schedule from
# the seed in its failure message.
set -euo pipefail
cd "$(dirname "$0")/.."

gates=(gofmt vet build test stress pacing admission fuzz-corpus crash-recovery
    leader-failover synctest telemetry observability executor reuse disk-fault
    cluster-e2e cluster-netchaos codec bench-smoke)

short_flag=""
if [[ "${1:-}" == "-short" ]]; then
    short_flag="-short"
    shift
fi
if [[ "${1:-}" == "-list" ]]; then
    printf '%s\n' "${gates[@]}"
    exit 0
fi

# list_guard fails loudly when a rename or deletion leaves a gate's -run
# pattern matching fewer tests than it should. Usage:
#   list_guard NAME WANT PATTERN PKG... (WANT "any" means at least one)
list_guard() {
    local name=$1 want=$2 run=$3
    shift 3
    local listed
    listed=$(go test -list "${run}" "$@" | grep -c '^\(Test\|Fuzz\)' || true)
    if [[ "${want}" == "any" && "${listed}" -eq 0 ]] || [[ "${want}" != "any" && "${listed}" -ne "${want}" ]]; then
        echo "${name} matched ${listed} tests for ${run} in $* (want ${want}): one was renamed or deleted" >&2
        exit 1
    fi
}

# Formatting gate. bench/ is frozen by BENCHMARK.json, so it is not this
# gate's to fix.
gate_gofmt() {
    local unformatted
    unformatted=$(gofmt -l . | grep -v '^bench/' || true)
    if [[ -n "${unformatted}" ]]; then
        echo "gofmt would change these files:" >&2
        echo "${unformatted}" >&2
        exit 1
    fi
}

# Vet gate, and the check for exported functions nothing outside tests
# calls: every one must be on testdata/uncalled_exports.txt with a reason.
gate_vet() {
    go vet ./...
    list_guard "vet gate" 1 '^TestNoUncalledExports$' .
    go test -count=1 -run '^TestNoUncalledExports$' .
}

gate_build() { go build ./...; }

# The race detector has caught real engine bugs; chaos timing plus -race is
# the most adversarial configuration we have.
gate_test() { go test -race ${short_flag} ./...; }

# Ordered-delivery stress: the two engine load tests once failed about one
# run in seven on two cores — concurrent sequencer flushes delivered batch
# N+1 to a node before batch N, and the node waited forever for the batch
# it had refused. The three completion tests ride in the same loop: who
# answers a client, and when, is a race between the committing node, the
# submitting node's scheduler and the transport, in both assemblies. A
# healthy run of all five takes ~0.2 s, so 100 repetitions under -race on
# GOMAXPROCS=2 are cheap.
gate_stress() {
    local run='TestThroughputUnderLoadAllPolicies|TestSerializableCounters|TestCompletionNoticesOnReorderedBatch|TestConcurrentSubmitsThroughOnePlainFrontend|TestSubmitAfterStopFails'
    list_guard "ordered-delivery stress" 5 "${run}" ./internal/engine
    GOMAXPROCS=2 go test -race -count=100 -run "${run}" ./internal/engine
}

# Pacing gate: the reliable link and the session front-end time their
# resends from measured round trips (network.RTO) and from nothing else.
# The grep fails if a hand-set pacing knob comes back. The pacing tests —
# the estimator, acks held 80 ms behind a gate, a 5%-drop link, a loss
# repaired on the receiver's gap report, a leader that seals 150 ms after
# each forward, a saturating backoff, size-only sealing — loop under -race
# on two cores, where a scheduler hiccup looks most like a lost ack. So do
# the tests of the frame coalescing below, and a grep keeps MsgTxnDone's
# construction in the one sender that groups it per batch.
gate_pacing() {
    local knobs
    knobs=$(git grep -nE 'RetransmitBase|RetransmitCap|RetryTimeout|RetryCap|procLink|SetDialRetry|SetSendTimeout|stopClock' -- '*.go' || true)
    if [[ -n "${knobs}" ]]; then
        echo "hand-set pacing knobs are back:" >&2
        echo "${knobs}" >&2
        exit 1
    fi
    local net='TestRTO|TestReliablePacesToGatedAcks|TestReliableRepairsSeededDrops|TestReliableResendsReportedGap'
    local seq='TestSessionFrontendPacesToSealLatency|TestFrontendRetryBackoffIsCapped|TestZeroIntervalSealsOnSizeOnly'
    # One transport per process: the ids a TCP transport hosts (a worker
    # and its co-hosted leader) exchange messages without sockets, without
    # accounting and without ever blocking, and one reliable layer pumps
    # for both while they ack each other; per-type counters; floors only
    # for journaled destinations.
    local hosted='TestHosted|TestStatsByTypeOverTCP|TestReliableFloorsOnlyForJournaledDestinations'
    # One frame per destination per drain: an owed ack rides the next data
    # frame back or leaves on its own after ackDelay, a gap report is never
    # parked and a gated ack never leaves early; a node's record pushes
    # leave once per bucket-worker chunk, tagged per transaction, a
    # replayed one for a finished transaction is dropped, and a committer
    # sends one completion notice per batch and client node.
    local piggy='TestReliablePiggyback|TestReliableParkedAck|TestReliableGapReportIsNeverParked|TestReliableGatedAck'
    local coalesce='TestTaggedPushFillsEachMailbox|TestReplayedPushForFinishedTxnLeavesNoMailbox|TestOutboxEmptyAfterEveryChunk|TestTxnDoneOncePerBatchAndClient'
    list_guard "pacing gate" 4 "${net}" ./internal/network
    list_guard "pacing gate" 3 "${seq}" ./internal/sequencer
    list_guard "pacing gate" 7 "${hosted}" ./internal/network
    list_guard "pacing gate" 6 "${piggy}" ./internal/network
    list_guard "pacing gate" 4 "${coalesce}" ./internal/engine
    # MsgTxnDone is built in one place, the batch-group sender.
    local done
    done=$(git grep -nE '(Type:|\.Type[[:space:]]*=)[[:space:]]*(network\.)?MsgTxnDone' -- '*.go' ':!*_test.go' || true)
    if [[ $(grep -c . <<<"${done}") -ne 1 ]] ||
        [[ -z $(awk '/^func \(n \*Node\) sendDone\(/{f=1} f && /MsgTxnDone/{print; exit} f && /^}/{f=0}' internal/engine/node.go) ]]; then
        echo "MsgTxnDone must be built only in Node.sendDone, the batch-group sender:" >&2
        echo "${done}" >&2
        exit 1
    fi
    GOMAXPROCS=2 go test -race -count=20 -run "${net}" ./internal/network
    GOMAXPROCS=2 go test -race -count=20 -run "${seq}" ./internal/sequencer
    GOMAXPROCS=2 go test -race -count=20 -run "${hosted}" ./internal/network
    GOMAXPROCS=2 go test -race -count=20 -run "${piggy}" ./internal/network
    GOMAXPROCS=2 go test -race -count=20 -run "${coalesce}" ./internal/engine
}

# Admission gate: the harness driver's closed-loop window is the cluster's
# only admission control, and the sequencer's failover timing and the
# supervisor's timing are constants. The grep fails if a deleted knob
# comes back (SeqHeartbeat as a whole identifier, so SeqHeartbeatMisses
# and the message type's name pass). The window test — at most Window
# submissions outstanding, the next one waiting for a completion — loops
# under -race on two cores.
gate_admission() {
    local knobs
    knobs=$( (git grep -nE 'overloadGate|OverloadDelay|OverloadShed|overload-delay|overload-shed|SupervisorConfig|SeqFailoverTimeout|NetBandwidth|TelemetryRingSize|FailoverTimeout:' -- '*.go' || true
        git grep -nE '(^|[^"[:alnum:]_])SeqHeartbeat([^"[:alnum:]_]|$)' -- '*.go' || true))
    if [[ -n "${knobs}" ]]; then
        echo "deleted admission/timing knobs are back:" >&2
        echo "${knobs}" >&2
        exit 1
    fi
    list_guard "admission gate" 1 '^TestDriverWindowBoundsInFlight$' ./internal/harness
    GOMAXPROCS=2 go test -race -count=10 -run '^TestDriverWindowBoundsInFlight$' ./internal/harness
}

# Replay fuzzing: the checked-in FuzzDeterministicReplay corpus, replayed
# as plain tests.
gate_fuzz-corpus() {
    list_guard "fuzz corpus smoke" 1 '^FuzzDeterministicReplay$' ./internal/engine
    go test -count=1 -run '^FuzzDeterministicReplay$' ./internal/engine
}

# Crash-recovery gate: reliable transport, node kill/restart, checkpoint+
# tail recovery, and the lossy+crash chaos schedules. The general sweep
# already covers these when run full; this named gate keeps the recovery
# claim pinned even under -short (see docs/RECOVERY.md). The node's order
# check right after a checkpoint, where the replay buffers start, is
# pinned by name. So is seeding, which a journal-only restart repeats
# before it replays: the bulk seeder against the per-row load, and the
# orchestrator's seeding of every worker at once.
gate_crash-recovery() {
    local run='Reliable|Crash|Recover|Checkpoint|LossAndCrash|LossySchedule|TCPTransport'
    list_guard "crash-recovery gate" 1 '^TestNodeRefusesGapAfterCheckpoint$' ./internal/engine
    go test -race -count=1 -run "${run}" ./internal/network ./internal/engine ./internal/chaos .
    local seed='^(TestSeedRowsMatchesLoadRecord|TestSeedPostsEveryWorkerAtOnce|TestLoadZeroedMatchesWrite)$'
    list_guard "crash-recovery gate" 3 "${seed}" ./internal/engine ./internal/harness ./internal/storage
    go test -race -count=1 -run "${seed}" ./internal/engine ./internal/harness ./internal/storage
}

# Leader-failover gate: killing the total-order leader — alone and
# combined with the lossy + worker-crash schedule — must quiesce to node
# digests byte-identical to a fault-free run for every policy, with every
# transaction sequenced exactly once (see docs/RECOVERY.md, "Leader
# failover"). Pinned by name so it survives -short. The engine's failover
# tests then loop on two cores, where a starved leader pulse looks most
# like a dead leader: a fault-free run must never promote a standby.
gate_leader-failover() {
    go test -race -count=1 \
        -run 'TestEquivalenceLeaderKill|TestLeaderKillSchedule|TestLeaderFailover|TestLeaderCrashValidation|TestGroup|TestFrontend' \
        ./internal/chaos ./internal/engine ./internal/sequencer .
    GOMAXPROCS=2 go test -race -count=20 -run TestLeaderFailover ./internal/engine
}

# bubble_guard fails when a package's bubble list (bubble_test.go, which
# only compiles under GOEXPERIMENT=synctest) is not exactly the tests that
# RUN matches, less those EXCLUDE matches: a test added, renamed or deleted
# without the list following. Usage: bubble_guard PKG RUN [EXCLUDE]
bubble_guard() {
    local pkg=$1 run=$2 exclude=${3:-'^$'} want got
    want=$(go test -list "${run}" "${pkg}" | grep '^Test' | grep -vE "${exclude}" | sort)
    got=$(grep -oE '^[[:space:]]+Test[[:alnum:]_]+,$' "${pkg}/bubble_test.go" | sed -E 's/[[:space:],]//g' | sort)
    if [[ "${want}" != "${got}" ]]; then
        echo "${pkg}/bubble_test.go does not list exactly the tests ${run} matches (< want, > listed):" >&2
        diff <(echo "${want}") <(echo "${got}") >&2 || true
        exit 1
    fi
}

# Synctest gate: the in-process protocol tests in testing/synctest bubbles,
# where time.Sleep, timers and time.Now are virtual and time moves only
# when every goroutine in the bubble waits (Go 1.24 ships the package
# behind GOEXPERIMENT=synctest; only this gate sets it). Each of the four
# packages lists its bubbled tests in bubble_test.go: the reliable link and
# the channel transport, every sequencer test, the chaos link model and
# the in-process chaos runs that do not call t.Parallel, and the engine's
# failover and crash tests. Two of the link model's tests are pinned by
# name: a Shape's latency is pipelined in process as on a socket, and the
# link model and the socket plane's pump time a burst alike. Tests that
# spawn processes or open sockets stay on the wall clock. leaktest's own
# check that it counts only the bubble goes first. Then twenty passes of everything, under -race on two
# cores, then a thousand more of the leader-failover tests, which take a
# few milliseconds of real time each in a bubble. The wall-clock failover
# loop in the leader-failover gate stays: a bubble cannot starve a
# goroutine, and only the wall clock checks that a CPU-starved pulse does
# not promote a standby.
gate_synctest() {
    local pkgs=(./internal/network ./internal/sequencer ./internal/chaos ./internal/engine)
    GOEXPERIMENT=synctest list_guard "synctest gate" 4 '^TestBubbled$' "${pkgs[@]}"
    bubble_guard ./internal/network '^Test(Reliable|ChanTransport)'
    bubble_guard ./internal/sequencer '^Test'
    bubble_guard ./internal/chaos '^Test' \
        'Plane|WANProfile|RouteBadUpstream|ScheduleString|^Test(CodecInTheLoop|DiskFault|Telemetry)Equivalence|^TestDispatchPathEquivalence(AllPolicies|LeaderKill)$|^TestEquivalence'
    bubble_guard ./internal/engine '^Test(LeaderFailover|LeaderCrash|DrainDetail|Crash|ClusterCloseLeaksNothing)'
    list_guard "synctest gate" 2 '^Test(BurstArrivesInOneLatency|LinkDueTimesMatchSocketPump)$' ./internal/chaos
    GOEXPERIMENT=synctest list_guard "synctest gate" 1 '^TestCheckCountsOnlyTheBubble$' ./internal/leaktest
    GOEXPERIMENT=synctest go test -race -count=1 ./internal/leaktest
    GOEXPERIMENT=synctest GOMAXPROCS=2 go test -race -count=20 -run '^TestBubbled$' "${pkgs[@]}"
    GOEXPERIMENT=synctest GOMAXPROCS=2 go test -race -count=1000 -run '^TestBubbled$/^TestLeaderFailover' ./internal/engine
}

# Telemetry-equivalence gate: tracing fully on vs fully off must quiesce
# to byte-identical node digests on every policy, including the lossy +
# mid-run-crash schedule — telemetry is an observer, never a participant
# (see docs/OBSERVABILITY.md). Pinned by name so it survives -short.
gate_telemetry() {
    go test -race -count=1 -run 'TestTelemetryEquivalence' ./internal/chaos
}

# Observability gate: the cluster trace plane. Histogram correctness
# (bucket boundaries, concurrent-writer merge, quantile property test),
# the binary event-export wire format, the tail sampler, the multi-ring
# /trace merge, and the 3-process cluster trace export — schema-valid
# Perfetto output, >=99% committed txns with complete cross-process span
# chains, clock-aligned monotonic critical paths, and byte-identical
# cluster digests with export on vs off (see docs/OBSERVABILITY.md,
# "Cluster tracing"). Pinned by name so it survives -short.
gate_observability() {
    local obs='TestHist|TestPhase|TestTail|TestTrace|TestEventStream|TestSlowPhasesClockEndpoints'
    local trace='TestStitchTimelines|TestWritePerfettoSchema|TestClusterTraceExport|TestClusterTraceOnOffDigestEquivalence|TestNodeServerTraceEndpointsNoLeak|TestCollectTraceKilledWorker'
    list_guard "observability gate" any "${obs}" ./internal/telemetry
    list_guard "observability gate" any "${trace}" ./internal/harness
    go test -race -count=1 -run "${obs}" ./internal/telemetry
    go test -count=1 -timeout 10m ${short_flag} -run "${trace}" ./internal/harness
}

# Executor gate: one admission engine (internal/qexec) and one place that
# picks where a role runs (see docs/PERF.md, "The executor"). Three named
# checks:
#   - the differential test: qexec grants every key in the same order as
#     the conservative lock manager it replaced, kept as the oracle;
#   - dispatch-path equivalence: roles run inline on the bucket workers (zero
#     cost model) and roles handed to the executor pool (1us storage delay)
#     quiesce to byte-identical digests on every policy, including the
#     lossy + mid-run-crash, leader-kill and disk schedules;
#   - the claims test: Hermes ahead of Calvin on Fig. 6(b) throughput and
#     under it on Fig. 7 admission wait, by the measured margins.
# Pinned by name so it survives -short.
gate_executor() {
    local gate run pkg
    for gate in 'TestGrantOrderMatchesLockManager ./internal/qexec' \
        'TestDispatchPathEquivalence|TestDiskFaultDispatchPathEquivalence ./internal/chaos' \
        'TestClaimsHermesAheadOfCalvin ./internal/experiments'; do
        run=${gate% *}
        pkg=${gate##* }
        list_guard "executor gate" any "${run}" "${pkg}"
        go test -race -count=1 -run "${run}" "${pkg}"
    done
    go test -race -count=1 ./internal/qexec
}

# Reuse gate: the engine's hot path recycles its buffers instead of
# allocating them per transaction (docs/PERF.md, "An allocation-free hot
# path"). Pinned by name: the allocation budget per committed transaction;
# the live heap that must not grow with input nothing will replay
# (docs/PERF.md, "Replay state starts at the checkpoint", and "One path
# through the sequencer" for the standby cases); a sequencer group whose
# replicas keep only the unreleased window without a checkpoint; a delivery log
# that drops taken messages without allocating, whatever the backlog; the
# qexec stress of recycled inboxes and key queues under concurrent
# Release/Submit pushes; the slot-array fusion table against the list-based
# table it replaced, kept as the oracle; the prescient router's per-batch
# scratch (key dictionary, generation stamp) reused across batches that
# grow, shrink and are empty, against a fresh scratch; the Zipfian stream
# pinned draw for draw; and a skipped workload prefix that leaves nothing
# behind.
# Buffer reuse is concurrency-sensitive, so qexec and fusion then loop
# under -race on two cores.
gate_reuse() {
    local gate run pkg
    for gate in 'TestSteadyStateAllocsPerTxn ./internal/engine' \
        'TestSteadyStateRetainsNoInput ./internal/engine' \
        'TestGroupRetainsOnlyTheUnreleasedWindow ./internal/sequencer' \
        'TestReliableDeliveryLogReusesItsArray ./internal/network' \
        'TestReuseUnderConcurrentPushes ./internal/qexec' \
        'TestSlotTableMatchesListTable ./internal/fusion' \
        'TestScratchReuseRoutesLikeFreshScratch ./internal/core' \
        'TestScrambledGolden ./internal/zipf' \
        'TestProcsSkipDropsPrefix ./internal/harness'; do
        run=${gate% *}
        pkg=${gate##* }
        list_guard "reuse gate" 1 "^${run}\$" "${pkg}"
        go test -count=1 -run "^${run}\$" "${pkg}"
    done
    GOMAXPROCS=2 go test -race -count=50 ./internal/qexec ./internal/fusion
}

# Disk-fault gate: the durability layer under injected storage faults.
# Covers the fault-injecting filesystem (torn/short writes, failed and
# lying fsyncs, power-cut truncation), the checksummed journal's recovery
# classification (torn tail vs corrupt frame), group-commit ack gating,
# and the chaos schedules that run every routing policy over live disk
# faults with offline crash-recovery checks (see docs/RECOVERY.md,
# "Durability"). Pinned by name so it survives -short.
gate_disk-fault() {
    local run='TestDisk|TestJournal|TestWriteF|TestCrash|TestLyingSync|TestUnsyncedRename|TestInjectedWrite|TestWipeUnsynced|TestOSFS'
    local pkgs=(./internal/chaos ./internal/diskio ./internal/network)
    list_guard "disk-fault gate" any "${run}" "${pkgs[@]}"
    go test -race -count=1 -run "${run}" "${pkgs[@]}"
}

# Multi-process cluster e2e gate: boots real hermesd processes over
# loopback TCP, SIGKILLs and restarts a worker mid-run, and requires the
# final node digests byte-identical to the in-process twin for the same
# seed (see docs/CLUSTER.md). The tests skip themselves under -short —
# they spawn OS processes. Set CLUSTER_E2E_ARTIFACTS to a directory to
# keep process logs from a failing run. The grep fails if the leader's own
# listener, transport or reliable layer comes back: worker 0's process
# runs one of each, shared with the leader (docs/CLUSTER.md, "Process
# layout").
gate_cluster-e2e() {
    local leader
    leader=$(git grep -nE 'LeaderLn|leaderTr|leaderRel|inheritListener\(5' -- '*.go' || true)
    if [[ -n "${leader}" ]]; then
        echo "the standalone leader's plumbing is back:" >&2
        echo "${leader}" >&2
        exit 1
    fi
    go test -count=1 -timeout 10m -v ${short_flag} \
        -run 'TestClusterE2E|TestClusterKillRestart|TestClusterSIGTERMDrains|TestClusterDurableRestart|TestNodeServer|TestRunTwin' \
        . ./internal/harness
}

# Cluster netchaos gate: the self-healing acceptance run. Three real
# hermesd processes with every inter-process data link routed through the
# chaos socket plane — asymmetric WAN latency, one mid-stream RST of the
# leader link, a 2s bidirectional partition that heals on its own — plus
# a SIGKILL that only the heartbeat supervisor repairs. The run must
# commit everything and quiesce to digests byte-identical to the
# fault-free in-process twin, with the child processes built -race
# (HERMESD_BUILD_RACE=1) so data races in the recovery paths surface
# here. The supervisor suite, the plane's own tests and the schedule's
# seam table ride along. Skips under -short (spawns OS processes); see
# docs/CLUSTER.md, "Network faults & the supervisor".
gate_cluster-netchaos() {
    local run='TestClusterNetChaos|TestSupervisor|TestPlane|TestWANProfile|TestScheduleSeams'
    local pkgs=(. ./internal/harness ./internal/chaos)
    list_guard "cluster netchaos gate" any "${run}" "${pkgs[@]}"
    HERMESD_BUILD_RACE=1 go test -race -count=1 -timeout 20m -v ${short_flag} -run "${run}" "${pkgs[@]}"
}

# Codec gate: the data plane (TCP frames, journal frames) is a hand-written
# binary codec; encoding/gob survives only in the cold checkpoint paths and
# in the frozen benchmark, and the guard keeps it from creeping back. The
# two fuzz targets replay their checked-in corpus in the sweep; here each
# also mutates for 10 s (see docs/CLUSTER.md, "Wire and journal format").
# The minimizer is capped at 1 s: left at its 60 s default it spends the
# whole smoke shrinking the first 2 KB input that finds new coverage and
# executes nothing else. Every generated transaction is plain data: the
# chaos workloads must quiesce identically with each procedure
# round-tripped through the request codec, and each generator's procedure
# must match the closure it replaced (kept as a test-only reference). The
# frames the benchmark sends stay pinned byte for byte, and the byte model
# charges a request for the keys the codec writes.
gate_codec() {
    local gob_want gob_got target gate run pkg
    gob_want=$'bench/probes.go\ninternal/durable/durable.go\ninternal/fusion/fusion.go'
    gob_got=$(grep -rl --include='*.go' --exclude='*_test.go' '"encoding/gob"' . | sed 's|^\./||' | sort)
    if [[ "${gob_got}" != "${gob_want}" ]]; then
        echo "non-test files importing encoding/gob changed; want exactly:" >&2
        echo "${gob_want}" >&2
        echo "got:" >&2
        echo "${gob_got}" >&2
        exit 1
    fi
    list_guard "codec gate" 2 'FuzzDecodeMessage|FuzzMessageRoundTrip' ./internal/network
    for target in FuzzDecodeMessage FuzzMessageRoundTrip; do
        go test -run '^$' -fuzz "^${target}\$" -fuzztime 10s -fuzzminimizetime 1s ./internal/network
    done
    for gate in 'TestCodecInTheLoopEquivalence ./internal/chaos' \
        'TestProceduresMatchClosureReference ./internal/workload' \
        'TestGoldenFrames ./internal/network' \
        'TestWireSizeTracksCodec ./internal/network'; do
        run=${gate% *}
        pkg=${gate##* }
        list_guard "codec gate" 1 "^${run}\$" "${pkg}"
        go test -race -count=1 -run "^${run}\$" "${pkg}"
    done
}

# Smoke-run the routing and link-layer benchmarks (1 iteration) so they
# can't silently rot; the routing cost is tracked by the core.route_* probes
# of `go run ./bench`, the link layer's acks/msg and writes/msg are read off
# BenchmarkLinkThroughput by hand (docs/PERF.md, "The link layer").
gate_bench-smoke() {
    go test -run '^$' -bench=BenchmarkPrescientRouting -benchtime=1x ./internal/core
    go test -run '^$' -bench=BenchmarkLinkThroughput -benchtime=1x ./internal/network
}

if [[ $# -eq 0 ]]; then
    set -- "${gates[@]}"
fi
for gate in "$@"; do
    if ! declare -F "gate_${gate}" >/dev/null; then
        echo "unknown gate ${gate}; gates: ${gates[*]}" >&2
        exit 2
    fi
done
for gate in "$@"; do
    echo "==> ${gate} ${short_flag}"
    "gate_${gate}"
done
echo "==> CI gate passed: $*"
