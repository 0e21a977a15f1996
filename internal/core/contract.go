package core

import (
	"fmt"

	"mpifault/internal/classify"
	"mpifault/internal/sampling"
)

// Contract is what a campaign runs, as a journal header records it: the
// regions and their per-region plan size, and either the fixed-n plan —
// narrowed, when Entries is set, to a shard or a lease — or the adaptive
// terms, which replace it with the planner's rounds (§4.3: n per region,
// or run until d at the confidence level).  Every outcome is a pure
// function of (seed, region, index), and the planner's next round a pure
// function of the tallies, so what a campaign must run next is a pure
// function of (contract, outcomes recorded so far): nobody holds planner
// state, they ask Frontier.  Run, a merge and the coordinator all do.
type Contract struct {
	Regions []Region
	// Injections is the per-region plan size; an adaptive campaign's
	// fixed-n cap (NormalizeAdaptive).
	Injections int
	// Entries, when non-nil, is a fixed-n campaign's exact entry list, in
	// execution order; each must lie inside the plan.  Adaptive campaigns
	// ignore it (Run runs an adaptive campaign's Entries as a fixed-n
	// list).
	Entries []PlanEntry

	Adaptive   bool
	Confidence float64
	Target     float64
	RoundSize  int
	Priors     []float64 // effective pilot priors, region order (EffectivePriors)
}

// Frontier asks what the campaign still lacks, given the experiments
// recorded so far (keyed by Experiment.ID).  missing is the unrecorded
// part of the first incomplete round, in the order the round executes
// and journals it; nil means the campaign is complete.  done is the
// campaign's recorded entries in plan order: the complete rounds, then
// what the incomplete one has so far.  A fixed-n campaign is one round,
// its entry list.  An adaptive one replays the planner round by round
// over the recorded outcomes; stats is its state at the last complete
// round (nil for fixed-n).
func (c Contract) Frontier(recorded map[string]Experiment) (done, missing []PlanEntry, stats *AdaptiveStats, err error) {
	if !c.Adaptive {
		entries := c.Entries
		if entries == nil {
			entries = Plan{Regions: c.Regions, Injections: c.Injections}.Range(0, len(c.Regions)*c.Injections)
		}
		for _, pe := range entries {
			if regionOrdinal(c.Regions, pe.Region) < 0 || pe.Index < 0 || pe.Index >= c.Injections {
				return nil, nil, nil, fmt.Errorf("core: entry %s outside the plan", pe.ID())
			}
			if _, ok := recorded[pe.ID()]; ok {
				done = append(done, pe)
			} else {
				missing = append(missing, pe)
			}
		}
		return done, missing, nil, nil
	}

	if len(c.Priors) != len(c.Regions) {
		return nil, nil, nil, fmt.Errorf("core: %d priors for %d regions", len(c.Priors), len(c.Regions))
	}
	strata := make([]sampling.Stratum, len(c.Regions))
	for i, r := range c.Regions {
		strata[i] = sampling.Stratum{Name: r.Short(), Prior: c.Priors[i]}
	}
	planner, err := sampling.NewPlanner(sampling.PlannerConfig{
		Confidence: c.Confidence, Target: c.Target, RoundSize: c.RoundSize,
	}, strata)
	if err != nil {
		return nil, nil, nil, err
	}
	stats = &AdaptiveStats{
		Confidence: c.Confidence, Target: c.Target, RoundSize: c.RoundSize, Cap: planner.Cap(),
	}
	executed := make([]int, len(c.Regions)) // per-region prefix length at the last complete round
	errors := make([]int, len(c.Regions))
	var allocs []int
	for {
		allocs = planner.NextRound()
		manifested := make([]int, len(c.Regions))
		allocated := false
		for i, a := range allocs {
			for k := 0; k < a; k++ {
				allocated = true
				pe := PlanEntry{Region: c.Regions[i], Index: executed[i] + k}
				if e, ok := recorded[pe.ID()]; !ok {
					missing = append(missing, pe)
				} else if e.Outcome != classify.Correct {
					manifested[i]++
				}
			}
		}
		if !allocated || missing != nil {
			break
		}
		for i, a := range allocs {
			executed[i] += a
			errors[i] += manifested[i]
			if err := planner.SetTally(i, errors[i], executed[i]); err != nil {
				return nil, nil, nil, err
			}
		}
		stats.Rounds++
	}
	for i, r := range c.Regions {
		for idx := 0; idx < executed[i]+allocs[i]; idx++ {
			pe := PlanEntry{Region: r, Index: idx}
			if idx >= executed[i] {
				if _, ok := recorded[pe.ID()]; !ok {
					continue
				}
			}
			done = append(done, pe)
		}
	}
	for i, s := range planner.Snapshot() {
		stats.Strata = append(stats.Strata, AdaptiveStratum{
			Region: c.Regions[i], Prior: s.Prior, Executed: s.Executed,
			Errors: s.Errors, HalfWidth: s.HalfWidth, Closed: s.Closed,
		})
	}
	return done, missing, stats, nil
}

// Assemble decides whether the recorded experiments are the finished
// campaign and, if so, returns it in plan order — the one place a result
// set is accepted, shared by merges and the coordinator.  An entry
// Frontier still asks for fails it, and so does, for an adaptive
// campaign, an experiment its planner never allocated: the set was not
// produced under this contract.  A fixed-n campaign ignores extras.
func (c Contract) Assemble(recorded map[string]Experiment) (*Result, error) {
	done, missing, stats, err := c.Frontier(recorded)
	if err != nil {
		return nil, err
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("core: merge incomplete: the planner requires %s, which no journal records (%d missing) — rerun the missing shards or resume them from their journals",
			missing[0].ID(), len(missing))
	}
	if c.Adaptive && len(done) != len(recorded) {
		return nil, fmt.Errorf("core: journals record %d experiments but the adaptive planner replay expects %d — not a completed campaign under the recorded contract",
			len(recorded), len(done))
	}
	return c.collect(done, recorded, stats), nil
}

// collect is the Result of the done entries Frontier returned: their
// experiments in that order, tallied in region order.  Assemble builds a
// finished campaign with it, and Run its result, finished or
// interrupted.
func (c Contract) collect(done []PlanEntry, recorded map[string]Experiment, stats *AdaptiveStats) *Result {
	res := &Result{Adaptive: stats, Experiments: make([]Experiment, len(done)), Tallies: make([]Tally, len(c.Regions))}
	for i, r := range c.Regions {
		res.Tallies[i].Region = r
	}
	for i, pe := range done {
		e := recorded[pe.ID()]
		e.Region, e.Index = pe.Region, pe.Index
		res.Experiments[i] = e
		t := &res.Tallies[regionOrdinal(c.Regions, pe.Region)]
		t.Executions++
		t.Outcomes[e.Outcome]++
		if e.Unapplied() {
			res.Unclassified++
		}
	}
	return res
}
