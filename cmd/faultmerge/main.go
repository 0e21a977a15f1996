// Command faultmerge merges the checkpoint journals of sharded
// faultcampaign runs back into the campaign's tables.
//
// Usage:
//
//	faultmerge [-csv] shard0.jsonl shard1.jsonl shard2.jsonl ...
//	faultmerge [-csv] -coord spool/
//
// The journals must come from `faultcampaign -shard i/K -journal ...`
// runs of the same campaign (same app, seed, injections, regions).  The
// merge validates that the shards are disjoint and together cover the
// whole plan, then re-aggregates the per-experiment outcomes exactly as
// a single-process campaign would: the merged CSV (and table) is byte
// identical to `faultcampaign -csv` at the same seed — the determinism
// gate CI enforces with a plain diff.
//
// -coord merges a faultcoord spool directory instead: one journal file
// per completed lease, named after the lease generation that completed
// it (a dead worker's partial upload is never spooled).  The same
// disjoint/complete validation and byte-identity guarantee apply.
//
// Exit status: 0 on a clean merge, 1 when the journals are incomplete,
// inconsistent, or contain experiments that failed to classify.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"mpifault/internal/apps"
	"mpifault/internal/report"
)

func main() {
	os.Exit(run())
}

func run() int {
	csv := flag.Bool("csv", false, "emit machine-readable CSV instead of the table layout")
	quiet := flag.Bool("quiet", false, "suppress the merge summary on stderr")
	coordDir := flag.String("coord", "", "merge a faultcoord spool directory (every *.jsonl lease segment) instead of listed journals")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("faultmerge: ")

	paths := flag.Args()
	var m *report.Merged
	var err error
	switch {
	case *coordDir != "":
		if len(paths) > 0 {
			log.Print("-coord and journal arguments are mutually exclusive")
			return 1
		}
		m, err = report.MergeDir(*coordDir)
	case len(paths) == 0:
		log.Print("usage: faultmerge [-csv] journal.jsonl ... | faultmerge [-csv] -coord spool/")
		return 1
	default:
		m, err = report.MergeJournals(paths)
	}
	if err != nil {
		log.Print(err)
		return 1
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "faultmerge: %s seed %d: %d experiments from %d journals\n",
			m.Header.App, m.Header.Seed, len(m.Result.Experiments), m.Journals)
	}

	if *csv {
		// CSV mode stays byte-identical to `faultcampaign -csv` — the
		// determinism gate diffs it — so the forensics and trace-diff
		// localization summaries are table-mode only.
		report.WriteCampaignCSV(os.Stdout, m.Header.App, m.Result)
	} else {
		app := m.Header.App
		label := app
		if a, err := apps.Get(app); err == nil {
			label = fmt.Sprintf("%s, stands in for %s", app, a.Paper)
		}
		report.WriteCampaign(os.Stdout, label, m.Result)
		if m.Result.Adaptive != nil {
			// The merge has already replayed the planner over the recorded
			// outcomes, so the contract it prints is the one the rounds
			// actually stopped on.
			report.WriteRates(os.Stdout, app, m.Result)
			fmt.Println()
		}
		report.WriteLatencyHistogram(os.Stdout, m.Result.Experiments)
		report.WriteLocalization(os.Stdout, m.Result.Experiments)
	}

	if m.Result.Unclassified > 0 {
		log.Printf("%d experiments failed to classify (no fault was applied); results are incomplete",
			m.Result.Unclassified)
		return 1
	}
	return 0
}
