package report

import (
	"fmt"
	"io"

	"mpifault/internal/core"
	"mpifault/internal/sampling"
)

// WriteRates renders the per-region manifestation-rate estimates with
// Wilson score CI half-width columns — the estimation-quality view the
// adaptive planner stops on, printed for fixed-n campaigns too.  When
// reweight is true (the campaign ran equivalence pruning), a second
// column pair shows the Horvitz–Thompson reweighted full-space rate with
// a half-width computed at Kish's effective sample size over the
// per-experiment candidate masses: pruning shrinks both the rate and its
// interval by the provably-benign mass it never had to sample.
//
// This table is advisory output; the campaign CSV stays byte-identical
// with or without it (it is never emitted in -csv mode).
func WriteRates(w io.Writer, app string, res *core.Result, confidence, target float64, reweight bool) {
	fmt.Fprintf(w, "Estimated Manifestation Rates (%s)\n", app)
	fmt.Fprintf(w, "%-14s %10s %8s %8s", "Region", "Executions", "Errors%", "±CI%")
	if reweight {
		fmt.Fprintf(w, " %12s %8s", "Reweighted%", "±CI%")
	}
	fmt.Fprintln(w)

	regions := make([]core.Region, len(res.Tallies))
	for i, t := range res.Tallies {
		regions[i] = t.Region
	}
	var weighted []core.WeightedTally
	if reweight && res.Experiments != nil {
		weighted = core.ReweightTallies(regions, res.Experiments)
	}

	for i, t := range res.Tallies {
		fmt.Fprintf(w, "%-14s %10d %8.1f", t.Region, t.Executions, t.ErrorRate())
		if t.Executions == 0 {
			fmt.Fprintf(w, " %8s", "-")
		} else if hw, err := sampling.WilsonHalfWidth(confidence, t.Errors(), t.Executions); err == nil {
			fmt.Fprintf(w, " %8.1f", 100*hw)
		} else {
			fmt.Fprintf(w, " %8s", "-")
		}
		if weighted != nil {
			wt := weighted[i]
			rw, hw, ok := reweightedHalfWidth(confidence, t.Region, res.Experiments, wt)
			if ok {
				fmt.Fprintf(w, " %12.1f %8.1f", rw, 100*hw)
			} else {
				fmt.Fprintf(w, " %12s %8s", "-", "-")
			}
		} else if reweight {
			fmt.Fprintf(w, " %12s %8s", "-", "-")
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "(Wilson score intervals at %.0f%% confidence", 100*confidence)
	if target > 0 {
		fmt.Fprintf(w, "; adaptive stopping target d=%.1f%%", 100*target)
	}
	fmt.Fprintf(w, ")\n")
}

// reweightedHalfWidth derives the CI half-width of a region's
// Horvitz–Thompson reweighted rate.  The random part of the estimator is
// the per-experiment candidate mass (the benign remainder is credited to
// Correct deterministically), so the interval is the Wilson half-width
// of the candidate-space proportion at Kish's n_eff, scaled back to the
// full space by the candidate mass share.
func reweightedHalfWidth(confidence float64, region core.Region, experiments []core.Experiment, wt core.WeightedTally) (ratePct, halfWidth float64, ok bool) {
	if wt.TotalMass == 0 {
		return 0, 0, false
	}
	var weights []float64
	var candMass, benignMass uint64
	for i := range experiments {
		if experiments[i].Region != region {
			continue
		}
		c := uint64(core.RegisterSpaceBits - experiments[i].BenignBits)
		if region != core.RegionRegularReg || experiments[i].BenignBits == 0 {
			c = uint64(core.RegisterSpaceBits)
		}
		weights = append(weights, float64(c))
		candMass += c
		benignMass += uint64(core.RegisterSpaceBits) - c
	}
	if candMass == 0 {
		// Everything was provably benign: the rate is exactly 0.
		return 0, 0, true
	}
	nEff, err := sampling.EffectiveSampleSize(weights)
	if err != nil {
		return 0, 0, false
	}
	// Errors only ever land on candidate mass, so the candidate-space
	// proportion is the error mass over the candidate mass.
	pc := float64(wt.Errors()) / float64(candMass)
	hw, err := sampling.WilsonHalfWidthAt(confidence, pc, nEff)
	if err != nil {
		return 0, 0, false
	}
	share := float64(candMass) / float64(wt.TotalMass)
	return wt.ErrorRate(), hw * share, true
}
