#!/bin/sh
# ci.sh - the repository's check gauntlet. Run before sending a PR.
#
#   ./ci.sh          gofmt + vet + build + full tests + race-detector pass
#                    over the concurrent packages (core, trace, conc, pt,
#                    source, etrace, ingest, fleet, netfault, iofault, scrub,
#                    and seeded, the fault core they share) and the root
#                    streaming tests + benchmark smoke
#
# The race pass covers the offline-phase parallelism introduced with the
# worker pool — the read-only Matcher contract, the per-core trace carve and
# the pool primitives themselves — plus the streaming pipeline: the chunked
# collector export, the incremental stitcher, and the Session fan-out (the
# full root suite under -race is too slow for CI, so the race pass runs the
# streaming-specific tests).
set -eu

cd "$(dirname "$0")"

echo "==> gofmt -l (every Go file must be gofmt-formatted)"
UNFORMATTED=$(find . -name '*.go' -not -path './.bench_build/*' -exec gofmt -l {} +)
if [ -n "$UNFORMATTED" ]; then
    echo "gofmt would reformat:"
    echo "$UNFORMATTED"
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> go test ./..."
go test ./...

echo "==> go test -race (concurrent packages)"
go test -race ./internal/core/... ./internal/trace/... ./internal/conc/... ./internal/pt/... ./internal/ring/... ./internal/source/... ./internal/etrace/...

echo "==> go test -race (root streaming tests)"
go test -race -run 'TestStream|TestAnalyzeStreamed|TestSession|TestAnalyzeDeterministicAcrossWorkers|TestPipelined|TestAsyncSink' .

echo "==> go test -race (ingest service + fleet + netfault + iofault + scrub + seeded)"
go test -race ./internal/ingest/... ./internal/fleet/... ./internal/netfault/... ./internal/iofault/... ./internal/scrub/... ./internal/seeded/...

echo "==> go test -race (root ingest + fleet + scrub e2e)"
go test -race -run 'TestIngest|TestFleet|TestScrub' .

echo "==> serve/push loopback smoke"
SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"' EXIT
go build -o "$SMOKE/jportal" ./cmd/jportal
"$SMOKE/jportal" collect -chunked -scale 0.5 -out "$SMOKE/local" fop >/dev/null
"$SMOKE/jportal" serve -listen 127.0.0.1:7901 -data "$SMOKE/ingest" >"$SMOKE/serve.log" 2>&1 &
SERVE_PID=$!
for i in $(seq 1 50); do
    grep -q 'listening on' "$SMOKE/serve.log" && break
    sleep 0.1
done
"$SMOKE/jportal" push -addr 127.0.0.1:7901 -id smoke "$SMOKE/local" >/dev/null
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
cmp "$SMOKE/local/stream.jpt" "$SMOKE/ingest/smoke/stream.jpt"
cmp "$SMOKE/local/program.gob" "$SMOKE/ingest/smoke/program.gob"
echo "    loopback archive byte-identical"

echo "==> fleet smoke (primary+standby coordinators, SIGKILL node and primary mid-fleet)"
# A real multi-process fleet over one shared data dir, with a durable
# control plane: a primary and a standby coordinator share a state dir and
# a leadership lease. Two sessions are pushed through the coordinators;
# one node is SIGKILLed while the fleet is live, then the PRIMARY
# COORDINATOR is SIGKILLed mid-push. The standby must assume leadership
# within one leader lease, rehydrate the membership its predecessor
# persisted, and route the resumed sessions — both archives must still
# come out byte-identical. The deterministic mid-CHUNK variants are pinned
# by TestFleetNodeLossResume and TestFleetCoordinatorFailoverMidPush.
COORDS=http://127.0.0.1:7912,http://127.0.0.1:7916
"$SMOKE/jportal" coordinate -listen 127.0.0.1:7911 -http 127.0.0.1:7912 -lease 1s \
    -data "$SMOKE/ctrl" -name primary -leader-lease 1s >"$SMOKE/coord.log" 2>&1 &
COORD_PID=$!
for i in $(seq 1 50); do
    grep -q 'control plane' "$SMOKE/coord.log" && break
    sleep 0.1
done
"$SMOKE/jportal" coordinate -listen 127.0.0.1:7915 -http 127.0.0.1:7916 -lease 1s \
    -data "$SMOKE/ctrl" -name standby -leader-lease 1s >"$SMOKE/standby.log" 2>&1 &
STANDBY_PID=$!
for i in $(seq 1 50); do
    grep -q 'control plane' "$SMOKE/standby.log" && break
    sleep 0.1
done
"$SMOKE/jportal" serve -listen 127.0.0.1:7913 -data "$SMOKE/fleet" \
    -coordinator "$COORDS" -node fleet-a >"$SMOKE/node-a.log" 2>&1 &
NODE_A_PID=$!
"$SMOKE/jportal" serve -listen 127.0.0.1:7914 -data "$SMOKE/fleet" \
    -coordinator "$COORDS" -node fleet-b >"$SMOKE/node-b.log" 2>&1 &
NODE_B_PID=$!
for i in $(seq 1 50); do
    grep -q 'joined fleet' "$SMOKE/node-a.log" && grep -q 'joined fleet' "$SMOKE/node-b.log" && break
    sleep 0.1
done
"$SMOKE/jportal" push -addr 127.0.0.1:7911,127.0.0.1:7915 -id fleet-s1 "$SMOKE/local" >/dev/null &
PUSH1_PID=$!
"$SMOKE/jportal" push -addr 127.0.0.1:7911,127.0.0.1:7915 -id fleet-s2 "$SMOKE/local" >/dev/null &
PUSH2_PID=$!
kill -9 "$NODE_A_PID"
wait "$NODE_A_PID" 2>/dev/null || true
kill -9 "$COORD_PID"
wait "$COORD_PID" 2>/dev/null || true
wait "$PUSH1_PID"
wait "$PUSH2_PID"
for i in $(seq 1 100); do
    grep -q 'assumed leadership' "$SMOKE/standby.log" && break
    sleep 0.1
done
# Queries rotate past the dead primary to the standby leader.
"$SMOKE/jportal" fleet -coordinator "$COORDS" nodes >"$SMOKE/fleet-nodes.txt"
"$SMOKE/jportal" fleet -coordinator "$COORDS" metrics >"$SMOKE/fleet-metrics.json"
grep -q '"fleet_nodes"' "$SMOKE/fleet-metrics.json"
grep -Eq '"coordinator_failovers": [1-9]' "$SMOKE/fleet-metrics.json"
kill -TERM "$NODE_B_PID"
wait "$NODE_B_PID"
kill -TERM "$STANDBY_PID"
wait "$STANDBY_PID"
cmp "$SMOKE/local/stream.jpt" "$SMOKE/fleet/fleet-s1/stream.jpt"
cmp "$SMOKE/local/stream.jpt" "$SMOKE/fleet/fleet-s2/stream.jpt"
cmp "$SMOKE/local/program.gob" "$SMOKE/fleet/fleet-s1/program.gob"
cmp "$SMOKE/local/program.gob" "$SMOKE/fleet/fleet-s2/program.gob"
"$SMOKE/jportal" fleet -data "$SMOKE/fleet" report | grep -q 'fleet report: 2 session(s), 0 skipped'
echo "    both sessions survived the node + primary-coordinator kills, archives byte-identical"

echo "==> chaos smoke (fixed seed, deterministic report, nonzero coverage)"
# The chaos command exits nonzero if any rate's coverage collapses to zero,
# and a panic anywhere in the hardened pipeline fails the run outright; the
# cmp asserts the whole report is reproducible for a fixed seed.
"$SMOKE/jportal" chaos -subjects fop,avrora -scale 0.2 -seed 42 -rates 0,1,2 >"$SMOKE/chaos1.txt"
"$SMOKE/jportal" chaos -subjects fop,avrora -scale 0.2 -seed 42 -rates 0,1,2 >"$SMOKE/chaos2.txt"
cmp "$SMOKE/chaos1.txt" "$SMOKE/chaos2.txt"
echo "    chaos report deterministic"

echo "==> chaos -fleet smoke (network faults, fixed seed, archives identical)"
# The network-fault counterpart: archives pushed through an in-process
# fleet whose every edge runs behind the seeded netfault injector. The
# command exits nonzero if any session's archive diverges (rate 0 pins the
# injector's passthrough: byte-identical to the no-netfault path), and the
# cmp asserts the sweep table is reproducible for a fixed seed.
"$SMOKE/jportal" chaos -fleet -subjects fop -scale 0.2 -seed 7 -rates 0,1,2 >"$SMOKE/chaosf1.txt"
"$SMOKE/jportal" chaos -fleet -subjects fop -scale 0.2 -seed 7 -rates 0,1,2 >"$SMOKE/chaosf2.txt"
cmp "$SMOKE/chaosf1.txt" "$SMOKE/chaosf2.txt"
echo "    chaos -fleet sweep deterministic, no data lost under faults"

echo "==> chaos -disk smoke (storage faults, scrub-and-repair, fixed seed)"
# The storage-fault counterpart: uploads run against an ingest server whose
# filesystem is behind the seeded iofault injector (ENOSPC, EIO, torn
# writes), then a planted torn-tail victim and a corrupt sealed casualty
# are scrubbed — the victim repaired and resumed, the casualty
# quarantined. The command exits nonzero on silent corruption (a completed
# upload whose archive diverges), and the cmp pins the sweep table's
# determinism for a fixed seed.
"$SMOKE/jportal" chaos -disk -subjects fop -scale 0.2 -seed 7 -rates 0,1,2 >"$SMOKE/chaosd1.txt" 2>/dev/null
"$SMOKE/jportal" chaos -disk -subjects fop -scale 0.2 -seed 7 -rates 0,1,2 >"$SMOKE/chaosd2.txt" 2>/dev/null
cmp "$SMOKE/chaosd1.txt" "$SMOKE/chaosd2.txt"
echo "    chaos -disk sweep deterministic, completed uploads byte-identical"

echo "==> scrub smoke (torn tail planted, repaired, resumed push identical)"
# The storage-durability loop end to end, with real processes: interrupt a
# push mid-upload (SIGKILL, as in the fleet smoke), corrupt the tail the
# way a torn write would, `scrub -repair`, re-push, and require the final
# archive byte-identical. The deterministic variant is pinned by
# TestScrubRepairTornTailThenResume.
"$SMOKE/jportal" serve -listen 127.0.0.1:7921 -data "$SMOKE/scrub" >"$SMOKE/scrub-serve.log" 2>&1 &
SCRUB_SERVE_PID=$!
for i in $(seq 1 50); do
    grep -q 'listening on' "$SMOKE/scrub-serve.log" && break
    sleep 0.1
done
"$SMOKE/jportal" push -addr 127.0.0.1:7921 -id scrub-smoke "$SMOKE/local" >/dev/null &
SCRUB_PUSH_PID=$!
sleep 0.05
kill -9 "$SCRUB_PUSH_PID" 2>/dev/null || true
wait "$SCRUB_PUSH_PID" 2>/dev/null || true
kill -TERM "$SCRUB_SERVE_PID"
wait "$SCRUB_SERVE_PID"
# Plant a torn tail if the upload was interrupted mid-flight (a push that
# managed to finish leaves a sealed archive, which scrub must leave alone).
if [ -f "$SMOKE/scrub/scrub-smoke/ingest.state" ] && ! grep -q 'sealed: true' "$SMOKE/scrub/scrub-smoke/ingest.state"; then
    printf '\004\000\000\000\000\001' >>"$SMOKE/scrub/scrub-smoke/stream.jpt"
fi
"$SMOKE/jportal" scrub -data "$SMOKE/scrub" -repair >"$SMOKE/scrub-report.txt"
"$SMOKE/jportal" serve -listen 127.0.0.1:7921 -data "$SMOKE/scrub" >"$SMOKE/scrub-serve2.log" 2>&1 &
SCRUB_SERVE_PID=$!
for i in $(seq 1 50); do
    grep -q 'listening on' "$SMOKE/scrub-serve2.log" && break
    sleep 0.1
done
"$SMOKE/jportal" push -addr 127.0.0.1:7921 -id scrub-smoke "$SMOKE/local" >/dev/null
kill -TERM "$SCRUB_SERVE_PID"
wait "$SCRUB_SERVE_PID"
cmp "$SMOKE/local/stream.jpt" "$SMOKE/scrub/scrub-smoke/stream.jpt"
cmp "$SMOKE/local/program.gob" "$SMOKE/scrub/scrub-smoke/program.gob"
"$SMOKE/jportal" scrub -data "$SMOKE/scrub" >/dev/null
echo "    torn upload repaired, resumed push byte-identical, final scrub clean"

echo "==> kill-and-resume smoke (SIGKILL mid-replay, resumed output identical)"
# The golden property (DESIGN.md §11): a replay killed with SIGKILL and
# resumed from its checkpoint prints exactly what an uninterrupted replay
# prints. Completed runs delete session.ckpt, so the cmp holds regardless
# of whether the kill landed mid-run or after completion — the mid-run
# case is pinned deterministically by TestKillAndResumeGoldenAllSubjects.
"$SMOKE/jportal" stream "$SMOKE/local" >"$SMOKE/golden.txt"
"$SMOKE/jportal" stream -ckpt-every 2 "$SMOKE/local" >/dev/null 2>&1 &
STREAM_PID=$!
sleep 0.1
kill -9 "$STREAM_PID" 2>/dev/null || true
wait "$STREAM_PID" 2>/dev/null || true
"$SMOKE/jportal" stream -resume "$SMOKE/local" >"$SMOKE/resumed.txt" 2>"$SMOKE/resume.log"
cmp "$SMOKE/golden.txt" "$SMOKE/resumed.txt"
test ! -e "$SMOKE/local/session.ckpt"
echo "    resumed replay byte-identical, checkpoint cleaned up"

echo "==> checkpoint fuzz corpus (seed corpus replay)"
go test -run 'Fuzz' ./internal/ckpt/

echo "==> benchmark smoke (one iteration)"
go test -bench BenchmarkStreamingMemory -benchtime=1x -run '^$' .

echo "==> perfbench smoke (every workload, untraced and traced, at tiny scale)"
# The repository benchmark is its own module. Its smoke test checks that
# the archive replay, the Session replay and the traced pass (which drives
# tokenizer, matcher and NewRecoverer directly) produce the same steps as
# the in-memory analysis, so the benchmark cannot rot and a thread
# analyzer whose output drifts from the explicit per-stage composition
# fails here. The pinned seed-0 hashes apply at scale 1 only: full runs
# (perfbench/run.sh) check those.
(cd perfbench && go test .)

echo "==> bench snapshot smoke (kernels, guard band vs committed BENCH_*.json)"
# Quick mode runs the steady-state kernels with the same inputs as the
# committed snapshot, so allocs/op and B/op — the machine-independent
# metrics — are directly comparable; -base enforces the one-sided 20% guard
# band on both against the newest committed snapshot, and bench.Load
# rejects malformed JSON.
BASE=$(ls BENCH_*.json | sort -t_ -k2 -n | tail -1)
"$SMOKE/jportal" bench -quick -out "$SMOKE/bench.json" -base "$BASE" -tol 0.2
echo "    bench snapshot well-formed, allocs/op and B/op within guard band of $BASE"

echo "ci.sh: all checks passed"
