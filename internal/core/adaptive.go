package core

// Adaptive campaigns: sequential stopping on top of the fixed-seed
// experiment space.
//
// The crucial property making adaptivity compatible with the repo's
// byte-identity gates is that every experiment's outcome is a pure
// function of (Seed, Region, Index) — the planner only decides WHICH
// indices run, never what they do.  RunAdaptive therefore executes, for
// each region, a gapless prefix [0, n_r) of the same per-region
// experiment sequence the fixed-n campaign would draw, extending the
// prefixes round by round until every region's Wilson CI half-width
// reaches the target d.  Consequences:
//
//   - an adaptive campaign is always a subset of the fixed-n campaign
//     at the same seed (n_r ≤ the §4.3 worst case for every region);
//   - a fixed (seed, config) rerun reproduces byte-identical CSV and
//     journal, because round allocations are a pure function of the
//     tallies and tallies are a pure function of the seed;
//   - a finished journal is self-validating: replaying the planner over
//     the recorded outcomes must land on exactly the recorded counts.

import (
	"fmt"
	"sort"

	"mpifault/internal/classify"
	"mpifault/internal/sampling"
	"mpifault/internal/telemetry"
)

// Paper-parity defaults for the adaptive estimation contract (§4.3:
// 400-500 injections per region give d = 4.4-4.9 % at 95 % confidence).
const (
	DefaultConfidence      = 0.95
	DefaultTargetHalfWidth = 0.049
)

// AdaptiveStratum is the per-region convergence state of an adaptive
// campaign.
type AdaptiveStratum struct {
	Region    Region
	Prior     float64 // pilot-sizing prior (0.5 where no AVF estimate)
	Executed  int     // experiments actually run (the prefix length n_r)
	Errors    int     // manifestations among them
	HalfWidth float64 // Wilson half-width at the final tally
	Closed    bool    // stopping rule satisfied (false only on interruption)
}

// AdaptiveStats summarizes an adaptive campaign's planner: the
// estimation contract, the rounds it took, and where each stratum
// stopped.
type AdaptiveStats struct {
	Confidence float64
	Target     float64
	RoundSize  int
	Cap        int // per-stratum fixed-n worst case (§4.3)
	Rounds     int
	Strata     []AdaptiveStratum
}

// TotalExecuted returns the experiments the adaptive campaign spent.
func (s *AdaptiveStats) TotalExecuted() int {
	var n int
	for i := range s.Strata {
		n += s.Strata[i].Executed
	}
	return n
}

// FixedTotal returns what the fixed-n design would have spent on the
// same regions.
func (s *AdaptiveStats) FixedTotal() int { return s.Cap * len(s.Strata) }

// StatusSuffix renders the per-stratum CI half-widths for the -status
// progress line, e.g. "d<=4.9%: reg 6.2%* fp 4.1% ... (312/3200)".
// An asterisk marks strata still open.
func (s *AdaptiveStats) StatusSuffix() string {
	out := fmt.Sprintf("d<=%.1f%%:", 100*s.Target)
	for i := range s.Strata {
		st := &s.Strata[i]
		mark := ""
		if !st.Closed {
			mark = "*"
		}
		out += fmt.Sprintf(" %s %.1f%%%s", st.Region.Short(), 100*st.HalfWidth, mark)
	}
	return out + fmt.Sprintf(" (%d/%d)", s.TotalExecuted(), s.FixedTotal())
}

// EffectivePriors materializes the pilot priors for the given regions in
// region order, applying the planner's fallback (0.5 for regions with no
// usable estimate).  The result is what journal headers record, so a
// merge can replay the planner without re-running the static analysis.
func EffectivePriors(regions []Region, priors map[Region]float64) []float64 {
	out := make([]float64, len(regions))
	for i, r := range regions {
		p, ok := priors[r]
		if !ok || !(p > 0 && p < 1) {
			p = 0.5
		}
		out[i] = p
	}
	return out
}

// PriorsFromLabels converts a label-keyed prior map (the analysis AVF
// estimator's output, keyed "Regular Reg.", "Text", ...) into the
// region-keyed map Config.AVFPriors takes.  Labels that don't name a
// region are an error — a typo would silently degrade to the 0.5
// fallback otherwise.
func PriorsFromLabels(labels map[string]float64) (map[Region]float64, error) {
	out := make(map[Region]float64, len(labels))
	for label, p := range labels {
		r, err := ParseRegion(label)
		if err != nil {
			return nil, err
		}
		out[r] = p
	}
	return out, nil
}

// AdaptiveContract pins an adaptive campaign's round schedule — exactly
// what a journal header records.  Every outcome is a pure function of
// (seed, region, index) and the planner's next round is a pure function
// of the tallies, so what the campaign must run next is a pure function
// of (contract, outcomes recorded so far): nobody holds planner state,
// they ask Frontier.
type AdaptiveContract struct {
	Confidence float64
	Target     float64
	RoundSize  int
	Regions    []Region
	Priors     []float64 // effective pilot priors, region order (EffectivePriors)
}

// RecordedIn adapts an ID-keyed experiment set (Config.Completed, a
// parsed journal, the coordinator's results) to Frontier's lookup.
func RecordedIn(byID map[string]Experiment) func(PlanEntry) (manifested, recorded bool) {
	return func(pe PlanEntry) (bool, bool) {
		e, ok := byID[pe.ID()]
		return e.Outcome != classify.Correct, ok
	}
}

// Frontier replays the planner over the recorded outcomes, round by
// round, and returns the unrecorded entries of the first incomplete
// round — regions in campaign order, indices ascending, the order the
// round executes and journals them; nil means the campaign converged.
// executed is the per-region prefix length at the last complete round
// and stats the planner's state there.  lookup is consulted only for
// entries the planner actually allocates.
func (c AdaptiveContract) Frontier(lookup func(PlanEntry) (manifested, recorded bool)) (executed []int, missing []PlanEntry, stats *AdaptiveStats, err error) {
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
	executed = make([]int, len(c.Regions))
	errors := make([]int, len(c.Regions))
	for {
		allocs := planner.NextRound()
		manifested := make([]int, len(c.Regions))
		allocated := false
		for i, a := range allocs {
			for k := 0; k < a; k++ {
				allocated = true
				pe := PlanEntry{Region: c.Regions[i], Index: executed[i] + k}
				if m, ok := lookup(pe); !ok {
					missing = append(missing, pe)
				} else if m {
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
	for i, s := range planner.Snapshot() {
		stats.Strata = append(stats.Strata, AdaptiveStratum{
			Region: c.Regions[i], Prior: s.Prior, Executed: s.Executed,
			Errors: s.Errors, HalfWidth: s.HalfWidth, Closed: s.Closed,
		})
	}
	return executed, missing, stats, nil
}

// NormalizeAdaptive applies the adaptive defaults to a config in place,
// validates the combination, and sizes Injections to the per-stratum
// fixed-n cap (the plan the journal header records).  It is idempotent,
// so callers may normalize once to build a header and again inside
// RunAdaptive.  Returns the cap.
func NormalizeAdaptive(cfg *Config) (int, error) {
	if cfg.Confidence == 0 {
		cfg.Confidence = DefaultConfidence
	}
	if cfg.TargetHalfWidth == 0 {
		cfg.TargetHalfWidth = DefaultTargetHalfWidth
	}
	if cfg.RoundSize == 0 {
		cfg.RoundSize = sampling.DefaultRoundSize
	}
	if len(cfg.Regions) == 0 {
		cfg.Regions = Regions()
	}
	if cfg.Shard != 0 || cfg.NumShards > 1 {
		return 0, fmt.Errorf("core: adaptive campaigns cannot be sharded (rounds own the plan); use the coordinator for distribution")
	}
	if cfg.Entries != nil {
		return 0, fmt.Errorf("core: adaptive campaigns and explicit Entries are mutually exclusive")
	}
	cap, err := sampling.SampleSize(cfg.Confidence, cfg.TargetHalfWidth)
	if err != nil {
		return 0, err
	}
	if cfg.Injections != 0 && cfg.Injections != cap {
		return 0, fmt.Errorf("core: adaptive campaigns size their own plan (cap %d); Injections must be zero, got %d", cap, cfg.Injections)
	}
	cfg.Injections = cap
	return cap, nil
}

// RunAdaptive executes an adaptive campaign: ask the contract's Frontier
// what the recorded outcomes (cfg.Completed on a resume) still lack, Run
// exactly those entries, record them, and ask again until nothing is
// missing.  The golden run is executed once and reused, so round 1
// captures its checkpoints and every round restores.  Composable with
// checkpointing, Forensics and TraceDiff;
// NormalizeAdaptive refuses sharding and explicit entries.
func RunAdaptive(cfg Config) (*Result, error) {
	if _, err := NormalizeAdaptive(&cfg); err != nil {
		return nil, err
	}
	contract := AdaptiveContract{
		Confidence: cfg.Confidence, Target: cfg.TargetHalfWidth, RoundSize: cfg.RoundSize,
		Regions: cfg.Regions, Priors: EffectivePriors(cfg.Regions, cfg.AVFPriors),
	}

	roundsCtr := cfg.Metrics.Counter(telemetry.MetricAdaptiveRounds)
	openGauge := cfg.Metrics.Gauge(telemetry.MetricAdaptiveOpen)
	halfWidthGauges := make([]*telemetry.Gauge, len(cfg.Regions))
	for i, r := range cfg.Regions {
		halfWidthGauges[i] = cfg.Metrics.Gauge(telemetry.AdaptiveHalfWidthMetric(r.Short()))
	}
	openGauge.Set(int64(len(cfg.Regions)))
	// Resumed experiments never reach Run; account for them the way it
	// would have, so the -status line counts them as done.
	cfg.Metrics.Counter(telemetry.MetricExperimentsPlanned).Add(uint64(len(cfg.Completed)))
	cfg.Metrics.Counter(telemetry.MetricExperimentsResumed).Add(uint64(len(cfg.Completed)))

	recorded := make(map[string]Experiment, len(cfg.Completed))
	for id, e := range cfg.Completed {
		recorded[id] = e
	}
	out := &Result{Golden: cfg.Golden}
	reported := 0 // rounds already announced to the metrics and OnRound
	for {
		_, missing, stats, err := contract.Frontier(RecordedIn(recorded))
		if err != nil {
			return nil, err
		}
		if stats.Rounds > reported {
			roundsCtr.Add(uint64(stats.Rounds - reported))
			reported = stats.Rounds
			open := 0
			for i := range stats.Strata {
				halfWidthGauges[i].Set(int64(stats.Strata[i].HalfWidth * 10_000))
				if !stats.Strata[i].Closed {
					open++
				}
			}
			openGauge.Set(int64(open))
			if cfg.OnRound != nil {
				cfg.OnRound(*stats)
			}
		}
		out.Adaptive = stats
		if len(missing) == 0 {
			break
		}
		if out.Interrupted || stopped(cfg.Stop) {
			out.Interrupted = true
			break
		}

		sub := cfg // Run ignores the adaptive fields
		sub.Progress = nil
		sub.Completed = nil // missing is by construction unrecorded
		sub.Entries = missing
		sub.Golden = out.Golden
		sub.KeepExperiments = true
		res, err := Run(sub)
		if err != nil {
			return nil, err
		}
		out.Golden = res.Golden
		out.Interrupted = res.Interrupted
		if st := res.Checkpoints; st != nil {
			if out.Checkpoints == nil { // Taken belongs to the golden
				out.Checkpoints = &CheckpointStats{Taken: st.Taken}
			}
			out.Checkpoints.Hits += st.Hits
			out.Checkpoints.Misses += st.Misses
			out.Checkpoints.InstrsSkipped += st.InstrsSkipped
		}
		out.Solo.add(res.Solo)
		for _, e := range res.Experiments {
			recorded[e.ID()] = e
		}
	}

	// Everything that finished, in plan order: the executed prefixes of a
	// converged campaign, plus an interrupted round's stragglers.
	all := make([]Experiment, 0, len(recorded))
	for _, e := range recorded {
		all = append(all, e)
	}
	SortExperimentsByPlan(cfg.Regions, all)
	out.summarize(&cfg, all)
	return out, nil
}

// regionOrdinal returns the position of region in the campaign's region
// list, or -1.
func regionOrdinal(regions []Region, r Region) int {
	for i := range regions {
		if regions[i] == r {
			return i
		}
	}
	return -1
}

// stopped polls stop; the nil channel of an unset Stop never fires.
func stopped(stop <-chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// SortExperimentsByPlan orders experiments by (region order, index) —
// the fixed-n plan order, and the order report.Assemble returns.
// (region, index) is unique per campaign, so the result is one order.
func SortExperimentsByPlan(regions []Region, experiments []Experiment) {
	ord := make(map[Region]int, len(regions))
	for i, r := range regions {
		ord[r] = i
	}
	sort.Slice(experiments, func(a, b int) bool {
		ra, rb := ord[experiments[a].Region], ord[experiments[b].Region]
		if ra != rb {
			return ra < rb
		}
		return experiments[a].Index < experiments[b].Index
	})
}
