#!/bin/sh
# tier1.sh — the repo's tier-1 gate: formatting, vet, build, the full
# test suite under the race detector, and a clean faultlint run over the
# three guest applications.  Exits nonzero on the first failure and
# prints a per-stage wall-clock timing line after each stage.
set -eu
cd "$(dirname "$0")"

SCRIPT_T0=$(date +%s)

begin() {
	echo "== $1 =="
	STAGE_NAME=$1
	STAGE_T0=$(date +%s)
}
end() {
	echo "-- $STAGE_NAME: $(($(date +%s) - STAGE_T0))s"
}

begin gofmt
fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
	echo "gofmt needed on:" >&2
	echo "$fmt" >&2
	exit 1
fi
end

begin "go vet"
go vet ./...
end

begin "CHANGES.md cap"
# One paragraph per PR (ROADMAP item 6): the newest entry, which is the
# file's last line, is at most 2000 bytes.
last=$(tail -n 1 CHANGES.md | wc -c)
if [ "$last" -gt 2000 ]; then
	echo "the last line of CHANGES.md is $last bytes; the cap is 2000" >&2
	exit 1
fi
end

begin "LOC ceiling"
# Pay down the surface (ROADMAP item 6), as a ratchet: non-test Go outside
# benchmark/ may shrink but not grow past what the last PR landed at.  A
# PR that must add lines deletes as many, or raises the constant and says
# why in CHANGES.md.
LOC_CEILING=21860
loc=$(find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path './.bench_build/*' | xargs cat | wc -l)
if [ "$loc" -gt "$LOC_CEILING" ]; then
	echo "non-test Go outside benchmark/ is $loc lines; the ceiling is $LOC_CEILING" >&2
	exit 1
fi
echo "$loc lines (ceiling $LOC_CEILING)"
end

begin staticcheck
# Blocking when the pinned binary is available (CI installs it); local
# machines without it skip rather than fetch anything over the network.
if command -v staticcheck >/dev/null 2>&1; then
	staticcheck ./...
else
	echo "staticcheck not installed; skipping (CI runs the pinned version)"
fi
end

begin "go build"
go build ./...
end

begin "go test -race"
# The campaign-differential tests in internal/core can exceed go test's
# 10-minute default under -race on small (1–2 CPU) hosts.  The suite
# includes TestCoordinatorSmoke, the in-process cluster gate: an httptest
# coordinator, two workers pulling leases over real HTTP, and the final
# CSV compared byte for byte against the single-process campaign.
go test -race -timeout 30m ./...
end

begin faultlint
go run ./cmd/faultlint
end

begin "trace smoke"
# Observer-effect gate for -trace-diff and -forensics: a tiny
# fixed-seed campaign must emit byte-identical CSV with and without
# them, the golden-trace identity file must be reproducible, and their
# records must not depend on where an experiment started.
TRACE_TMP=$(mktemp -d)
trap 'rm -rf "$TRACE_TMP"' EXIT
# Plain and -trace-diff alike decide most experiments on one rank,
# restored from a checkpoint — message faults included, since they name
# a byte of one sender's stream: observers ride the one execution path.
go run ./cmd/faultcampaign -app wavetoy -n 24 -seed 7 -regions reg,message -csv -quiet \
	>"$TRACE_TMP/plain.csv"
go run ./cmd/faultcampaign -app wavetoy -n 24 -seed 7 -regions reg,message -csv -quiet \
	-trace-diff -trace-out "$TRACE_TMP/trace-a.json" >"$TRACE_TMP/traced.csv"
diff -u "$TRACE_TMP/plain.csv" "$TRACE_TMP/traced.csv"
# Solo from t=0, against the golden run's own tape.
go run ./cmd/faultcampaign -app wavetoy -n 24 -seed 7 -regions reg,message -csv -quiet \
	-checkpoint-interval 0 >"$TRACE_TMP/scratch.csv"
diff -u "$TRACE_TMP/scratch.csv" "$TRACE_TMP/traced.csv"
go run ./cmd/faultcampaign -app wavetoy -n 24 -seed 7 -regions reg,message -csv -quiet \
	-trace-diff -trace-out "$TRACE_TMP/trace-b.json" >/dev/null
diff -u "$TRACE_TMP/trace-a.json" "$TRACE_TMP/trace-b.json"
# The schedule is a function of the job, not of the host: an 8-region
# journal, every experiment's `detail` included, is the same bytes on
# one host thread and on eight.
GOMAXPROCS=1 go run ./cmd/faultcampaign -app wavetoy -n 12 -seed 7 -csv -quiet \
	-journal "$TRACE_TMP/procs1.jsonl" >"$TRACE_TMP/procs1.csv"
GOMAXPROCS=8 go run ./cmd/faultcampaign -app wavetoy -n 12 -seed 7 -csv -quiet \
	-journal "$TRACE_TMP/procs8.jsonl" >"$TRACE_TMP/procs8.csv"
cmp "$TRACE_TMP/procs1.jsonl" "$TRACE_TMP/procs8.jsonl"
cmp "$TRACE_TMP/procs1.csv" "$TRACE_TMP/procs8.csv"
if ! grep -q '"detail"' "$TRACE_TMP/procs1.jsonl"; then
	echo "trace smoke: the compared journal carries no detail field" >&2
	exit 1
fi
# Flight records and divergences of an 8-region campaign are the same
# bytes restored from checkpoints (the default) and run from t=0.
go run ./cmd/faultcampaign -app wavetoy -n 12 -seed 7 -csv -quiet -forensics -trace-diff \
	-journal "$TRACE_TMP/observed.jsonl" >"$TRACE_TMP/observed.csv"
go run ./cmd/faultcampaign -app wavetoy -n 12 -seed 7 -csv -quiet -forensics -trace-diff \
	-checkpoint-interval 0 -journal "$TRACE_TMP/observed0.jsonl" >"$TRACE_TMP/observed0.csv"
cmp "$TRACE_TMP/observed.jsonl" "$TRACE_TMP/observed0.jsonl"
cmp "$TRACE_TMP/observed.csv" "$TRACE_TMP/observed0.csv"
cmp "$TRACE_TMP/procs1.csv" "$TRACE_TMP/observed.csv"
for field in divergence last_pcs; do
	if ! grep -q "\"$field\"" "$TRACE_TMP/observed.jsonl"; then
		echo "trace smoke: the observed journal carries no $field field" >&2
		exit 1
	fi
done
end

begin "adaptive smoke"
# Determinism gate for -adaptive: a small sequential-stopping campaign
# (loose d so the caps stay tiny) must emit byte-identical CSV across
# reruns and with its rounds restoring from the golden run's
# checkpoints (the default) or starting every experiment from t=0, and
# the flag conflicts must be hard errors.
ADAPT_TMP=$(mktemp -d)
trap 'rm -rf "$TRACE_TMP" "$ADAPT_TMP"' EXIT
# Without -quiet, for the restore summary on stderr.
go run ./cmd/faultcampaign -app wavetoy -adaptive -d 0.12 -seed 7 -regions reg,heap -csv \
	>"$ADAPT_TMP/a.csv" 2>"$ADAPT_TMP/a.err"
go run ./cmd/faultcampaign -app wavetoy -adaptive -d 0.12 -seed 7 -regions reg,heap -csv \
	>"$ADAPT_TMP/b.csv" 2>/dev/null
diff -u "$ADAPT_TMP/a.csv" "$ADAPT_TMP/b.csv"
go run ./cmd/faultcampaign -app wavetoy -adaptive -d 0.12 -seed 7 -regions reg,heap -csv \
	-checkpoint-interval 0 >"$ADAPT_TMP/scratch.csv" 2>/dev/null
diff -u "$ADAPT_TMP/a.csv" "$ADAPT_TMP/scratch.csv"
if ! grep -Eq 'checkpoints; [1-9][0-9]*/[0-9]+ experiments restored' "$ADAPT_TMP/a.err"; then
	echo "adaptive smoke: the default -adaptive run reported no restored experiments" >&2
	cat "$ADAPT_TMP/a.err" >&2
	exit 1
fi
# -adaptive owns the sample size and is single-process: -n and -shard
# must be rejected, as must the adaptive knobs without -adaptive.
if go run ./cmd/faultcampaign -app wavetoy -adaptive -n 5 -quiet >/dev/null 2>&1; then
	echo "adaptive smoke: -adaptive with -n was accepted" >&2
	exit 1
fi
if go run ./cmd/faultcampaign -app wavetoy -adaptive -shard 0/2 -quiet >/dev/null 2>&1; then
	echo "adaptive smoke: -adaptive with -shard was accepted" >&2
	exit 1
fi
if go run ./cmd/faultcampaign -app wavetoy -d 0.1 -n 5 -quiet >/dev/null 2>&1; then
	echo "adaptive smoke: -d without -adaptive was accepted" >&2
	exit 1
fi
end

begin "go bench smoke"
# One iteration of every Go benchmark: catches benchmarks that no
# longer compile or crash, without measuring anything.
go test -run '^$' -bench . -benchtime 1x ./...
end

begin "benchmark-smoke"
# The campaign benchmark (benchmark/, a module of its own that
# `go test ./...` does not descend into): its unit tests, and one
# short run of one workload so its correctness gate — shape checks
# and benchmark/expected/ — sees every change.  Nothing is measured.
(cd benchmark && go vet ./... && go test -short ./...)
bash benchmark/run.sh -workload msg_comm16 --seconds 6
end

echo "tier1: OK ($(($(date +%s) - SCRIPT_T0))s total)"
