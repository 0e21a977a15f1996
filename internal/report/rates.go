package report

import (
	"fmt"
	"io"

	"mpifault/internal/core"
	"mpifault/internal/sampling"
)

// WriteRates renders the per-region manifestation-rate estimates with
// Wilson score CI half-width columns — the estimation-quality view the
// adaptive planner stops on, printed for fixed-n campaigns too.
//
// This table is advisory output; the campaign CSV stays byte-identical
// with or without it (it is never emitted in -csv mode).
func WriteRates(w io.Writer, app string, res *core.Result, confidence, target float64) {
	fmt.Fprintf(w, "Estimated Manifestation Rates (%s)\n", app)
	fmt.Fprintf(w, "%-14s %10s %8s %8s\n", "Region", "Executions", "Errors%", "±CI%")
	for _, t := range res.Tallies {
		fmt.Fprintf(w, "%-14s %10d %8.1f", t.Region, t.Executions, t.ErrorRate())
		if t.Executions == 0 {
			fmt.Fprintf(w, " %8s", "-")
		} else if hw, err := sampling.WilsonHalfWidth(confidence, t.Errors(), t.Executions); err == nil {
			fmt.Fprintf(w, " %8.1f", 100*hw)
		} else {
			fmt.Fprintf(w, " %8s", "-")
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "(Wilson score intervals at %.0f%% confidence", 100*confidence)
	if target > 0 {
		fmt.Fprintf(w, "; adaptive stopping target d=%.1f%%", 100*target)
	}
	fmt.Fprintf(w, ")\n")
}
