// Package report renders the reproduction's tables and figure series in
// the layout of the paper: Table 1 (per-process profiles), Tables 2-4
// (fault-injection results per application), and Tables 5-7 (working-set
// curves, printed as data series suitable for plotting).
package report

import (
	"fmt"
	"io"
	"strings"

	"mpifault/internal/classify"
	"mpifault/internal/core"
	"mpifault/internal/profile"
	"mpifault/internal/sampling"
	"mpifault/internal/trace"
)

// WriteProfiles renders Table 1 for the given application profiles.
func WriteProfiles(w io.Writer, profiles []*profile.Profile) {
	fmt.Fprintf(w, "Table 1: Per-Process Profiles of Test Applications\n")
	fmt.Fprintf(w, "%-22s", "")
	for _, p := range profiles {
		fmt.Fprintf(w, "%16s", p.App)
	}
	fmt.Fprintln(w)

	row := func(label string, f func(*profile.Profile) string) {
		fmt.Fprintf(w, "%-22s", label)
		for _, p := range profiles {
			fmt.Fprintf(w, "%16s", f(p))
		}
		fmt.Fprintln(w)
	}
	kb := func(b uint32) string { return fmt.Sprintf("%.1f KB", float64(b)/1024) }
	row("Ranks", func(p *profile.Profile) string { return fmt.Sprintf("%d", p.Ranks) })
	row("Text Size", func(p *profile.Profile) string { return kb(p.TextBytes) })
	row("  user / MPI", func(p *profile.Profile) string {
		return fmt.Sprintf("%s/%s", kb(p.UserText), kb(p.MPIText))
	})
	row("Data Size", func(p *profile.Profile) string { return kb(p.DataBytes) })
	row("BSS Size", func(p *profile.Profile) string { return kb(p.BSSBytes) })
	row("Heap Size (user)", func(p *profile.Profile) string { return kb(p.HeapStable) })
	row("Heap Size (MPI)", func(p *profile.Profile) string { return kb(p.MPIHeap) })
	row("Stack Size", func(p *profile.Profile) string { return kb(p.StackBytes) })
	row("Message (KB)", func(p *profile.Profile) string {
		return fmt.Sprintf("%.0f-%.0f", float64(p.MsgBytesMin)/1024, float64(p.MsgBytesMax)/1024)
	})
	row("  Header %", func(p *profile.Profile) string { return fmt.Sprintf("%.0f", p.HeaderPct) })
	row("  User %", func(p *profile.Profile) string { return fmt.Sprintf("%.0f", p.UserPct) })
	row("  Control msgs", func(p *profile.Profile) string { return fmt.Sprintf("%d", p.ControlMsgs) })
	row("  Data msgs", func(p *profile.Profile) string { return fmt.Sprintf("%d", p.DataMsgs) })
}

// manifestationColumns is the column order of Tables 2-4.
var manifestationColumns = []classify.Outcome{
	classify.Crash, classify.Hang, classify.Incorrect,
	classify.AppDetected, classify.MPIDetected,
}

// WriteCampaign renders a Tables 2-4 style fault-injection result for one
// application, including the §4.3 sampling-error banner.
func WriteCampaign(w io.Writer, app string, res *core.Result) {
	fmt.Fprintf(w, "Fault Injection Results (%s)\n", app)
	fmt.Fprintf(w, "%-14s %10s %8s", "Region", "Executions", "Errors%")
	for _, o := range manifestationColumns {
		fmt.Fprintf(w, " %12s", o)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-14s %10s %8s %s\n", "", "", "",
		strings.Repeat(" ", 1)+"(manifestation percentages of manifested errors)")

	for _, t := range res.Tallies {
		fmt.Fprintf(w, "%-14s %10d %8.1f", t.Region, t.Executions, t.ErrorRate())
		for _, o := range manifestationColumns {
			if t.Outcomes[o] == 0 {
				fmt.Fprintf(w, " %12s", "-")
			} else {
				fmt.Fprintf(w, " %12.0f", t.ManifestPercent(o))
			}
		}
		fmt.Fprintln(w)
	}
	if len(res.Tallies) > 0 {
		n := res.Tallies[0].Executions
		if d, err := sampling.EstimationError(0.95, n); err == nil {
			fmt.Fprintf(w, "(n=%d per region: estimation error %.1f%% at 95%% confidence)\n",
				n, 100*d)
		}
	}
}

// WriteWorkingSet renders a Tables 5-7 style series: one row per sample
// time with the text and data working-set percentages.
func WriteWorkingSet(w io.Writer, app string, s *trace.Series) {
	fmt.Fprintf(w, "Memory Trace (%s): working set size (%%) vs block count\n", app)
	fmt.Fprintf(w, "%14s %8s %8s %8s %8s %14s\n",
		"block count", "text", "data", "bss", "heap", "data+bss+heap")
	for i := range s.Times {
		fmt.Fprintf(w, "%14d %8.1f %8.1f %8.1f %8.1f %14.1f\n",
			s.Times[i], s.TextPct[i], s.DataPct[i], s.BSSPct[i],
			s.HeapPct[i], s.CombinedPct[i])
	}
}

// WriteCampaignCSV renders the campaign as machine-readable CSV.
func WriteCampaignCSV(w io.Writer, app string, res *core.Result) {
	fmt.Fprintf(w, "app,region,executions,errors,error_rate_pct,crash,hang,incorrect,app_detected,mpi_detected,correct\n")
	for _, t := range res.Tallies {
		fmt.Fprintf(w, "%s,%s,%d,%d,%.2f,%d,%d,%d,%d,%d,%d\n",
			app, t.Region, t.Executions, t.Errors(), t.ErrorRate(),
			t.Outcomes[classify.Crash], t.Outcomes[classify.Hang],
			t.Outcomes[classify.Incorrect], t.Outcomes[classify.AppDetected],
			t.Outcomes[classify.MPIDetected], t.Outcomes[classify.Correct])
	}
}
