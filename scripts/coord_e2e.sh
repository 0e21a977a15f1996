#!/bin/sh
# scripts/coord_e2e.sh — the cluster chaos gate CI runs: a faultcoord
# coordinator plus three faultcampaign workers, one of which is
# SIGKILLed mid-campaign, must still produce a final CSV byte-identical
# to the single-process run — and the coordinator's spool directory must
# reconstruct the same bytes through `faultmerge -coord`.  Two legs: a
# fixed-n campaign, then an adaptive one, where the dead worker's leases
# hold up a round barrier until a survivor re-runs them.
#
# Every spool file must open with the exact header line a single-process
# `faultcampaign -journal` writes at the same spec: the coordinator
# defines the campaign once and its lease grants carry that header.
#
# Both cluster legs run with -trace-diff, which adds two assertions: the
# coordinator CSV must still match the single-process run *without*
# tracing (trace-diff only observes), and every worker's logged
# golden-trace digest must equal the hash a single-process
# `faultcampaign -trace-out` computes — the golden tapes are a pure
# function of (app, seed, ranks), identical on every machine.
#
# Environment:
#   BIN_DIR   directory with prebuilt faultcoord/faultcampaign/faultmerge
#             binaries (CI builds them once in a setup job); empty builds
#             them into a temp dir here
#   APP       guest application            (default wavetoy)
#   N         injections per region        (default 60)
#   SEED      campaign seed                (default 7)
#   KILL_AT   results ingested before the victim is stopped, to be
#             SIGKILLed once /status shows it holding a lease (default 8)
#   ADAPTIVE_D, ADAPTIVE_REGIONS, ADAPTIVE_ROUND   the adaptive leg's
#             stopping target, regions and round size (default 0.08,
#             reg,heap and 16: message-free, so the leg is a dozen or so
#             short rounds of deterministic experiments)
set -eu
cd "$(dirname "$0")/.."

APP=${APP:-wavetoy}
N=${N:-60}
SEED=${SEED:-7}
KILL_AT=${KILL_AT:-8}
ADAPTIVE_D=${ADAPTIVE_D:-0.08}
ADAPTIVE_REGIONS=${ADAPTIVE_REGIONS:-reg,heap}
ADAPTIVE_ROUND=${ADAPTIVE_ROUND:-16}

WORK=$(mktemp -d)
PIDS=""
cleanup() {
	for pid in $PIDS; do
		kill "$pid" 2>/dev/null || true
	done
	rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

if [ -n "${BIN_DIR:-}" ]; then
	FAULTCOORD=$BIN_DIR/faultcoord
	FAULTCAMPAIGN=$BIN_DIR/faultcampaign
	FAULTMERGE=$BIN_DIR/faultmerge
	chmod +x "$FAULTCOORD" "$FAULTCAMPAIGN" "$FAULTMERGE"
else
	echo "== building binaries =="
	go build -o "$WORK/bin/" ./cmd/faultcoord ./cmd/faultcampaign ./cmd/faultmerge
	FAULTCOORD=$WORK/bin/faultcoord
	FAULTCAMPAIGN=$WORK/bin/faultcampaign
	FAULTMERGE=$WORK/bin/faultmerge
fi

echo "== worker-mode flag conflicts exit nonzero =="
if "$FAULTCAMPAIGN" -worker http://127.0.0.1:1 -shard 0/2 2>"$WORK/conflict.err"; then
	echo "FAIL: -worker combined with -shard was accepted" >&2
	exit 1
fi
grep -q "drop -shard" "$WORK/conflict.err"
echo "refused with: $(cat "$WORK/conflict.err")"

echo "== faultcoord without -app exits nonzero naming -app =="
if "$FAULTCOORD" -addr 127.0.0.1:0 -wait 2>"$WORK/noapp.err"; then
	echo "FAIL: faultcoord without -app was accepted" >&2
	exit 1
fi
grep -q -- "-app" "$WORK/noapp.err"
echo "refused with: $(cat "$WORK/noapp.err")"

echo "== single-process golden CSV and journal =="
"$FAULTCAMPAIGN" -app "$APP" -n "$N" -seed "$SEED" -csv -quiet \
	-journal "$WORK/golden.jsonl" >"$WORK/golden.csv"

echo "== single-process traced CSV must be byte-identical =="
"$FAULTCAMPAIGN" -app "$APP" -n "$N" -seed "$SEED" -csv -quiet \
	-trace-diff -trace-out "$WORK/trace.json" >"$WORK/traced.csv"
diff -u "$WORK/golden.csv" "$WORK/traced.csv"
echo "reference golden trace: $(cat "$WORK/trace.json")"

# cluster LEG COORD_FLAGS...: a coordinator with the given campaign flags
# plus three workers, one SIGKILLed once KILL_AT results are in.  The
# victim starts alone and the survivors join after the kill.  Once KILL_AT
# results are in it is SIGSTOPped and /status read: it is SIGKILLed if it
# holds a lease, and let go on (SIGCONT) to be caught again if not — so it
# dies holding a lease, and a survivor must steal it: the leg fails if the
# campaign ends with no lease stolen.  Leaves $WORK/LEG.csv (the
# coordinator's final CSV), $WORK/LEG.spool, the coordinator's stderr in
# $WORK/LEG.coord.log and the survivors' in $WORK/LEG.w2.log and
# $WORK/LEG.w3.log.
cluster() {
	leg=$1
	shift
	echo "== $leg: coordinator + 3 workers (one will be SIGKILLed) =="
	rm -f "$WORK/addr"
	"$FAULTCOORD" -addr 127.0.0.1:0 -addr-file "$WORK/addr" \
		-app "$APP" -seed "$SEED" "$@" \
		-lease-size 8 -lease-ttl 2s -dir "$WORK/$leg.spool" \
		-wait -out "$WORK/$leg.csv" -status 5s 2>"$WORK/$leg.coord.log" &
	COORD=$!
	PIDS="$COORD"

	i=0
	while [ ! -s "$WORK/addr" ]; do
		i=$((i + 1))
		if [ "$i" -gt 100 ]; then
			echo "FAIL: coordinator never wrote its address file" >&2
			exit 1
		fi
		sleep 0.1
	done
	URL=$(cat "$WORK/addr")
	echo "coordinator at $URL"

	"$FAULTCAMPAIGN" -worker "$URL" -worker-name victim -quiet &
	VICTIM=$!
	PIDS="$COORD $VICTIM"

	echo "== $leg: waiting for $KILL_AT ingested results, then SIGKILL the victim holding a lease =="
	i=0
	while :; do
		got=$(curl -fsS "$URL/status" 2>/dev/null \
			| grep -o '"results_ingested":[0-9]*' | cut -d: -f2 || echo 0)
		if [ "${got:-0}" -ge "$KILL_AT" ]; then
			kill -STOP "$VICTIM"
			sleep 0.2 # let a request the victim had sent land first
			lease=$(curl -fsS "$URL/status" 2>/dev/null \
				| grep -o '"name":"victim","lease":-*[0-9]*' | cut -d: -f3 || echo -1)
			if [ "${lease:--1}" -ge 0 ]; then
				break
			fi
			kill -CONT "$VICTIM"
		fi
		if ! kill -0 "$COORD" 2>/dev/null; then
			echo "FAIL: the coordinator exited before the kill (campaign over at ${got:-0} results?)" >&2
			exit 1
		fi
		i=$((i + 1))
		if [ "$i" -gt 1200 ]; then
			echo "FAIL: campaign never reached $KILL_AT results (at ${got:-0})" >&2
			exit 1
		fi
		sleep 0.1
	done
	kill -9 "$VICTIM"
	echo "victim SIGKILLed at ${got} results, holding lease $lease"

	# w2 and w3 run chatty with captured stderr: their "golden trace
	# digest" lines are the cross-machine trace-identity assertion below.
	"$FAULTCAMPAIGN" -worker "$URL" -worker-name w2 2>"$WORK/$leg.w2.log" &
	W2=$!
	"$FAULTCAMPAIGN" -worker "$URL" -worker-name w3 2>"$WORK/$leg.w3.log" &
	W3=$!
	PIDS="$COORD $W2 $W3"

	COORD_STATUS=0
	wait "$COORD" || COORD_STATUS=$?
	# The coordinator exits as soon as the campaign completes; a surviving
	# worker racing its shutdown may never see the campaign-over answer,
	# so reap them rather than wait for it (their exit status is not the
	# assertion — the CSV bytes are).
	PIDS=""
	kill "$W2" "$W3" 2>/dev/null || true
	wait "$W2" 2>/dev/null || true
	wait "$W3" 2>/dev/null || true
	cat "$WORK/$leg.coord.log" >&2
	if [ "$COORD_STATUS" -ne 0 ]; then
		echo "FAIL: coordinator exited $COORD_STATUS" >&2
		exit 1
	fi
	stolen=$(grep -o '([0-9]* stolen)' "$WORK/$leg.coord.log" | tr -dc '0-9')
	if [ "${stolen:-0}" -eq 0 ]; then
		echo "FAIL: the campaign ended with no lease stolen from the dead victim" >&2
		exit 1
	fi
}

# same_headers LEG REFERENCE: every spool file of LEG opens with the
# header line of the single-process journal REFERENCE.
same_headers() {
	want=$(head -n 1 "$2")
	count=0
	for seg in "$WORK/$1.spool"/*.jsonl; do
		if [ "$(head -n 1 "$seg")" != "$want" ]; then
			echo "FAIL: $seg opens with $(head -n 1 "$seg"), not the single-process journal header $want" >&2
			exit 1
		fi
		count=$((count + 1))
	done
	echo "all $count $1 spool files open with the single-process journal header"
}

cluster fixed -n "$N" -trace-diff

echo "== final CSV must be byte-identical to the single-process run =="
diff -u "$WORK/golden.csv" "$WORK/fixed.csv"
echo "coordinator CSV is byte-identical to the single-process campaign"
same_headers fixed "$WORK/golden.jsonl"

echo "== spool reconstruction through faultmerge -coord =="
"$FAULTMERGE" -csv -coord "$WORK/fixed.spool" >"$WORK/merged.csv"
diff -u "$WORK/golden.csv" "$WORK/merged.csv"
echo "faultmerge -coord reconstruction is byte-identical too"

echo "== worker golden-trace digests must match the single-process trace =="
WANT=$(grep -o '"hash":"[0-9a-f]*"' "$WORK/trace.json" | cut -d'"' -f4)
GOT=$(grep -h -o 'golden trace digest [0-9a-f]*' "$WORK"/fixed.w2.log "$WORK"/fixed.w3.log \
	| awk '{print $4}' | sort -u)
if [ -z "$GOT" ]; then
	echo "FAIL: no surviving worker logged a golden trace digest" >&2
	exit 1
fi
if [ "$GOT" != "$WANT" ]; then
	echo "FAIL: worker trace digest(s) [$GOT] != single-process $WANT" >&2
	exit 1
fi
echo "every worker computed golden trace digest $WANT"

# The adaptive leg: the same chaos across round barriers.  A round's
# leases must all complete — the dead victim's included, re-run by a
# survivor — before the coordinator asks the frontier for the next, and
# the rounds must be the ones a single process runs.
echo "== single-process adaptive CSV =="
"$FAULTCAMPAIGN" -app "$APP" -adaptive -d "$ADAPTIVE_D" -round "$ADAPTIVE_ROUND" -seed "$SEED" \
	-regions "$ADAPTIVE_REGIONS" -csv -quiet -journal "$WORK/adaptive-golden.jsonl" >"$WORK/adaptive-golden.csv"

cluster adaptive -adaptive -d "$ADAPTIVE_D" -round "$ADAPTIVE_ROUND" -regions "$ADAPTIVE_REGIONS" -trace-diff

echo "== adaptive CSV must be byte-identical to the single-process run =="
diff -u "$WORK/adaptive-golden.csv" "$WORK/adaptive.csv"
same_headers adaptive "$WORK/adaptive-golden.jsonl"
echo "== adaptive spool reconstruction through faultmerge -coord =="
"$FAULTMERGE" -csv -coord "$WORK/adaptive.spool" >"$WORK/adaptive-merged.csv"
diff -u "$WORK/adaptive-golden.csv" "$WORK/adaptive-merged.csv"
echo "adaptive coordinator CSV and spool merge are byte-identical to faultcampaign -adaptive"

echo "coord_e2e: OK"
