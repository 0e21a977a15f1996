#!/bin/sh
# scripts/adaptive_gate.sh — the adaptive-efficiency gate.
#
# Runs the full paper-contract adaptive campaign (d=4.9% at 95%
# confidence, all eight regions) on each app and checks the efficiency
# claim the optimization was built for: the sequential-stopping planner
# must reach the contract at no more than RATIO_MAX (default 0.6x) of
# the fixed-n experiment count on at least MIN_PASS (default 2) of the
# apps.  The per-app ratio comes from the campaign's own summary line
#   <app>: adaptive stopping converged in R rounds: X experiments vs
#   Y fixed-n (Z.ZZx of the worst case)
# which faultcampaign prints to stderr in -csv mode.
#
# The gate also asserts the determinism contract at the CLI level: the
# first app is run twice and the CSVs must be byte-identical, and twice
# more, all eight regions, with and without -checkpoint-interval 0
# (rounds restore from the golden run's checkpoints by default; the CSV
# must not show it).
#
# Usage: scripts/adaptive_gate.sh
#   APPS       space-separated app list   (default: wavetoy minimd minicam)
#   D          CI half-width target       (default: 0.049, the paper's)
#   RATIO_MAX  max adaptive/fixed ratio   (default: 0.6)
#   MIN_PASS   apps that must meet it     (default: 2)
set -eu
cd "$(dirname "$0")/.."

APPS=${APPS:-"wavetoy minimd minicam"}
D=${D:-0.049}
RATIO_MAX=${RATIO_MAX:-0.6}
MIN_PASS=${MIN_PASS:-2}
SEED=${SEED:-1}

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

go build -o "$WORK/faultcampaign" ./cmd/faultcampaign

passed=0
total=0
first=""
for app in $APPS; do
    total=$((total + 1))
    [ -n "$first" ] || first=$app
    echo "== $app: adaptive campaign at d=$D =="
    "$WORK/faultcampaign" -app "$app" -adaptive -d "$D" -seed "$SEED" \
        -csv -quiet > "$WORK/$app.csv" 2> "$WORK/$app.err"
    summary=$(grep "adaptive stopping converged" "$WORK/$app.err" | tail -1)
    if [ -z "$summary" ]; then
        echo "FAIL: $app printed no convergence summary" >&2
        cat "$WORK/$app.err" >&2
        exit 1
    fi
    echo "$summary"
    executed=$(echo "$summary" | sed -n 's/.*: \([0-9][0-9]*\) experiments vs.*/\1/p')
    fixed=$(echo "$summary" | sed -n 's/.*vs \([0-9][0-9]*\) fixed-n.*/\1/p')
    if [ -z "$executed" ] || [ -z "$fixed" ]; then
        echo "FAIL: could not parse the summary line" >&2
        exit 1
    fi
    # ratio <= RATIO_MAX without floating point: executed*100 <= fixed*max*100
    maxpct=$(echo "$RATIO_MAX" | awk '{printf "%d", $1 * 100}')
    if [ $((executed * 100)) -le $((fixed * maxpct)) ]; then
        echo "   $app: ${executed}/${fixed} experiments — within ${RATIO_MAX}x"
        passed=$((passed + 1))
    else
        echo "   $app: ${executed}/${fixed} experiments — above ${RATIO_MAX}x"
    fi
done

echo "== rerun determinism ($first) =="
"$WORK/faultcampaign" -app "$first" -adaptive -d "$D" -seed "$SEED" \
    -csv -quiet > "$WORK/$first.rerun.csv" 2> /dev/null
diff -u "$WORK/$first.csv" "$WORK/$first.rerun.csv" \
    || { echo "FAIL: adaptive rerun CSV differs" >&2; exit 1; }
echo "   byte-identical"

# Rounds restore from the golden run's checkpoints by default; the CSV
# must not show it, in any of the eight regions.
echo "== checkpoint differential ($first) =="
# Without -quiet, for the restore summary on stderr.
"$WORK/faultcampaign" -app "$first" -adaptive -d "$D" -seed "$SEED" \
    -csv > "$WORK/$first.ckpt.csv" 2> "$WORK/$first.ckpt.err"
"$WORK/faultcampaign" -app "$first" -adaptive -d "$D" -seed "$SEED" \
    -csv -checkpoint-interval 0 > "$WORK/$first.scratch.csv" 2> /dev/null
diff -u "$WORK/$first.ckpt.csv" "$WORK/$first.scratch.csv" \
    || { echo "FAIL: adaptive CSV differs with restores on and off" >&2; exit 1; }
grep -E 'checkpoints; [1-9][0-9]*/[0-9]+ experiments restored' "$WORK/$first.ckpt.err" \
    || { echo "FAIL: the default adaptive run restored no experiment" >&2; cat "$WORK/$first.ckpt.err" >&2; exit 1; }
echo "   byte-identical"

echo "== verdict: $passed/$total apps within ${RATIO_MAX}x (need $MIN_PASS) =="
if [ "$passed" -lt "$MIN_PASS" ]; then
    echo "FAIL: adaptive sampling did not meet the efficiency target" >&2
    exit 1
fi
echo "PASS"
