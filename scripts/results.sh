#!/bin/sh
# scripts/results.sh — regenerate the committed results files with the
# commands EXPERIMENTS.md quotes them from, so that any drift shows:
#
#   sh scripts/results.sh && git diff --exit-code results_*.txt
#
# A campaign is a pure function of (app, seed, ranks, contract), so the
# files are the same bytes on any host at any GOMAXPROCS.  The one line
# that is not, "(campaign wall time …)", is dropped.  About a minute of
# campaigns on 2 cores, plus the builds.
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/" ./cmd/faultcampaign

go run ./cmd/profileapps >results_table1.txt
"$tmp/faultcampaign" -n 500 -seed 2004 >"$tmp/out"
sed '/^(campaign wall time /d' "$tmp/out" >results_tables234.txt
go run ./cmd/memtrace -rank 1 -samples 16 >results_tables567.txt

# The rank-count sweep (EXPERIMENTS.md "Adaptive sampling", "Rank-count
# sweep"): one paper-contract adaptive campaign per app at 1, 2, 4 and 8
# ranks, the same total problem at each (scale = default x 8/R).  One
# rank has no traffic, so no message region.
: >"$tmp/out"
for app in wavetoy:256 minimd:96 minicam:192; do
	name=${app%:*}
	scale=${app#*:}
	for ranks in 1 2 4 8; do
		regions=""
		if [ "$ranks" = 1 ]; then
			regions="-regions reg,fp,bss,data,stack,text,heap"
		fi
		"$tmp/faultcampaign" -app "$name" -ranks "$ranks" -scale $((scale * 8 / ranks)) \
			-adaptive -seed 1 $regions 2>/dev/null >>"$tmp/out"
	done
done
sed '/^(campaign wall time /d' "$tmp/out" >results_adaptive.txt

# The 64-rank paper-contract tables (EXPERIMENTS.md "Ghosts per sender"),
# one per app at seed 2004, and the scale gate: wavetoy's and minicam's
# again without checkpoints and on one OS thread must be the same bytes.
table() {
	"$tmp/faultcampaign" -ranks 64 -adaptive -seed 2004 "$@" 2>/dev/null | sed '/^(campaign wall time /d'
}
: >"$tmp/out"
for app in wavetoy minimd minicam; do
	table -app "$app" >"$tmp/$app"
	cat "$tmp/$app" >>"$tmp/out"
done
cp "$tmp/out" results_scale.txt
for app in wavetoy minicam; do
	table -app "$app" -checkpoint-interval 0 >"$tmp/$app.t0"
	GOMAXPROCS=1 table -app "$app" >"$tmp/$app.p1"
	cmp "$tmp/$app" "$tmp/$app.t0"
	cmp "$tmp/$app" "$tmp/$app.p1"
done
