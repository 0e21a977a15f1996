#!/bin/sh
# scripts/benchcheck.sh — benchmark regression check against the
# recorded reference in BENCH_vm.json.
#
# Re-runs the internal/vm benchmarks at a smoke-weight benchtime and
# warns when any ns/op figure regressed more than the threshold vs the
# recorded reference.  (A literal -benchtime 1x measures only harness
# overhead — 1 iteration of a 10ns benchmark reports ~30000 ns/op, and
# tiny fixed counts measure cache warm-up — so this uses a short
# time-based benchtime: still sub-second, but the numbers are real.
# The loose 25% default threshold absorbs the remaining noise.)
#
# Every benchmark of internal/vm with a row in BENCH_vm.json is gated:
# the interpreter loops (BenchmarkStep, BenchmarkSuperblockRun) at the
# threshold given here, per-rank set-up (BenchmarkMachineNew) and a
# restored rank's first stores (BenchmarkRestoreFirstWrite) at the wider
# gate_pct their rows carry.
#
# With COUNT=N each benchmark runs N times and benchcmp keeps the
# minimum — the fastest run is the least disturbed by scheduler noise,
# which is what lets CI run this as a *blocking* gate at a tight
# threshold: `COUNT=5 scripts/benchcheck.sh 2` fails the pipeline if
# the telemetry-disabled interpreter got more than 2% slower than the
# recorded reference.
#
# Usage: scripts/benchcheck.sh [threshold-percent]
set -eu
cd "$(dirname "$0")/.."

THRESHOLD=${1:-25}
BENCHTIME=${BENCHTIME:-200ms}
COUNT=${COUNT:-1}
OUT=$(mktemp)
trap 'rm -f "$OUT"' EXIT

echo "== internal/vm benchmarks ($BENCHTIME x$COUNT, min kept) =="
go test -run '^$' -bench . -benchtime "$BENCHTIME" -count "$COUNT" ./internal/vm | tee "$OUT"

echo "== compare vs BENCH_vm.json (threshold ${THRESHOLD}%) =="
go run ./scripts/benchcmp -ref BENCH_vm.json -threshold "$THRESHOLD" < "$OUT"

# Campaign-level checkpointing and adaptive-sampling benchmarks
# (informational, never blocks).
# These run whole wavetoy campaigns (~0.5s per iteration) so they are far
# noisier than the interpreter microbenchmarks above; the comparison
# against BENCH_campaign.json is printed for the log but a regression
# here does not fail the script.  Skip entirely with CAMPAIGN=0.
if [ "${CAMPAIGN:-1}" != "0" ]; then
    echo "== campaign checkpointing + adaptive benchmarks (informational) =="
    CAMPOUT=$(mktemp)
    go test -run '^$' -bench 'BenchmarkCampaign(Scratch|Checkpointed|FixedN|Adaptive)$' \
        -benchtime "${CAMPAIGN_BENCHTIME:-3x}" -count "${CAMPAIGN_COUNT:-1}" . \
        | tee "$CAMPOUT"
    go run ./scripts/benchcmp -ref BENCH_campaign.json -threshold "$THRESHOLD" < "$CAMPOUT" \
        || echo "(campaign bench comparison is informational; not failing)"
    rm -f "$CAMPOUT"
fi
