#!/bin/sh
# scripts/results.sh — regenerate the committed results files with the
# commands EXPERIMENTS.md quotes them from, so that any drift shows:
#
#   sh scripts/results.sh && git diff --exit-code results_*.txt
#
# A campaign is a pure function of (app, seed, ranks, contract), so the
# files are the same bytes on any host at any GOMAXPROCS.  The one line
# that is not, "(campaign wall time …)", is dropped.  About 20 s of
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
