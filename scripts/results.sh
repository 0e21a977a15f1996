#!/bin/sh
# scripts/results.sh — regenerate the committed results files with the
# commands EXPERIMENTS.md quotes them from, so that any drift shows:
#
#   sh scripts/results.sh && git diff --exit-code results_*.txt
#
# A campaign is a pure function of (app, seed, ranks, contract), so the
# files are the same bytes on any host at any GOMAXPROCS.  The one line
# that is not, "(campaign wall time …)", is dropped.  About 5 s of
# campaigns on 2 cores, plus the builds.
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

go run ./cmd/profileapps >results_table1.txt
go run ./cmd/faultcampaign -n 500 -seed 2004 >"$tmp"
sed '/^(campaign wall time /d' "$tmp" >results_tables234.txt
go run ./cmd/memtrace -rank 1 -samples 16 >results_tables567.txt
