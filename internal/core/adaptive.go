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

// adaptivePlanner builds the sampling planner for a config whose
// adaptive defaults have been applied.
func adaptivePlanner(cfg *Config) (*sampling.Planner, []float64, error) {
	priors := EffectivePriors(cfg.Regions, cfg.AVFPriors)
	strata := make([]sampling.Stratum, len(cfg.Regions))
	for i, r := range cfg.Regions {
		strata[i] = sampling.Stratum{Name: r.Short(), Prior: priors[i]}
	}
	p, err := sampling.NewPlanner(sampling.PlannerConfig{
		Confidence: cfg.Confidence,
		Target:     cfg.TargetHalfWidth,
		RoundSize:  cfg.RoundSize,
	}, strata)
	return p, priors, err
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

// RunAdaptive executes an adaptive campaign: rounds of Run over growing
// per-region prefixes, with the golden run executed once and reused (so
// round 1 captures its checkpoints and every round restores), and the
// planner advanced only at round barriers.  Composable with
// checkpointing, Forensics, TraceDiff, liveness and equivalence
// policies; mutually exclusive with sharding and explicit entries.
func RunAdaptive(cfg Config) (*Result, error) {
	cap, err := NormalizeAdaptive(&cfg)
	if err != nil {
		return nil, err
	}
	planner, _, err := adaptivePlanner(&cfg)
	if err != nil {
		return nil, err
	}

	var halfWidthGauges []*telemetry.Gauge
	var roundsCtr *telemetry.Counter
	var openGauge *telemetry.Gauge
	if cfg.Metrics != nil {
		roundsCtr = cfg.Metrics.Counter(telemetry.MetricAdaptiveRounds)
		openGauge = cfg.Metrics.Gauge(telemetry.MetricAdaptiveOpen)
		openGauge.Set(int64(len(cfg.Regions)))
		for _, r := range cfg.Regions {
			halfWidthGauges = append(halfWidthGauges, cfg.Metrics.Gauge(telemetry.AdaptiveHalfWidthMetric(r.Short())))
		}
	}

	stats := &AdaptiveStats{
		Confidence: cfg.Confidence,
		Target:     cfg.TargetHalfWidth,
		RoundSize:  cfg.RoundSize,
		Cap:        cap,
	}
	executed := make([]int, len(cfg.Regions)) // prefix length per region
	errors := make([]int, len(cfg.Regions))   // manifestations per region
	var all []Experiment
	golden := cfg.Golden
	var ckpt *CheckpointStats // summed over rounds; Taken and Fallback belong to the golden
	interrupted := false

	for {
		if stopped(cfg.Stop) {
			interrupted = true
			break
		}
		entries := AdaptiveEntriesForRound(cfg.Regions, executed, planner.NextRound())
		if len(entries) == 0 {
			break
		}
		stats.Rounds++

		sub := cfg // Run ignores the adaptive fields
		sub.Progress = nil
		sub.Entries = entries
		sub.Golden = golden
		sub.KeepExperiments = true
		res, err := Run(sub)
		if err != nil {
			return nil, err
		}
		golden = res.Golden
		if st := res.Checkpoints; st != nil {
			if ckpt == nil {
				ckpt = &CheckpointStats{Taken: st.Taken, Fallback: st.Fallback}
			}
			ckpt.Hits += st.Hits
			ckpt.Misses += st.Misses
			ckpt.InstrsSkipped += st.InstrsSkipped
		}

		// Fold the round into the per-region prefixes.  An interrupted
		// round may return a gapped set (experiments past the first
		// unfinished entry that happened to finish); only the gapless
		// per-region prefix counts toward the tallies — the rest lives
		// in the journal for a resume to reclaim.
		for i := range res.Experiments {
			e := &res.Experiments[i]
			ri := regionOrdinal(cfg.Regions, e.Region)
			if ri < 0 {
				return nil, fmt.Errorf("core: adaptive round returned foreign experiment %s", e.ID())
			}
			if e.Index != executed[ri] {
				if res.Interrupted {
					continue
				}
				return nil, fmt.Errorf("core: adaptive round returned out-of-order experiment %s", e.ID())
			}
			executed[ri]++
			if e.Outcome != classify.Correct {
				errors[ri]++
			}
			all = append(all, *e)
		}
		for i := range cfg.Regions {
			if err := planner.SetTally(i, errors[i], executed[i]); err != nil {
				return nil, err
			}
		}
		fillAdaptiveStats(stats, planner, cfg.Regions)
		if cfg.Metrics != nil {
			roundsCtr.Inc()
			open := 0
			for i := range stats.Strata {
				halfWidthGauges[i].Set(int64(stats.Strata[i].HalfWidth * 10_000))
				if !stats.Strata[i].Closed {
					open++
				}
			}
			openGauge.Set(int64(open))
		}
		if cfg.OnRound != nil {
			cfg.OnRound(*stats)
		}
		if res.Interrupted {
			interrupted = true
			break
		}
	}

	fillAdaptiveStats(stats, planner, cfg.Regions)
	out := &Result{Golden: golden, Interrupted: interrupted, Checkpoints: ckpt, Adaptive: stats}
	out.summarize(&cfg, all)
	return out, nil
}

// fillAdaptiveStats refreshes the per-stratum snapshot from the planner.
func fillAdaptiveStats(stats *AdaptiveStats, planner *sampling.Planner, regions []Region) {
	snap := planner.Snapshot()
	stats.Strata = stats.Strata[:0]
	for i, s := range snap {
		stats.Strata = append(stats.Strata, AdaptiveStratum{
			Region:    regions[i],
			Prior:     s.Prior,
			Executed:  s.Executed,
			Errors:    s.Errors,
			HalfWidth: s.HalfWidth,
			Closed:    s.Closed,
		})
	}
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

// ReplayAdaptive re-derives the per-region prefix lengths an adaptive
// campaign must have executed, given its estimation contract, priors and
// the recorded outcomes.  errorAt reports whether the experiment at
// (region ordinal, index) manifested; it is only consulted for indices
// the planner actually allocates, in increasing order per region.  The
// returned slice is the expected Executed count per region — a journal
// whose per-region counts differ was not produced by the deterministic
// planner (or was interrupted), and a merge must reject it.
func ReplayAdaptive(confidence, target float64, roundSize int, regions []Region, priors []float64, errorAt func(region, index int) (bool, error)) ([]int, error) {
	if len(priors) != len(regions) {
		return nil, fmt.Errorf("core: %d priors for %d regions", len(priors), len(regions))
	}
	strata := make([]sampling.Stratum, len(regions))
	for i, r := range regions {
		strata[i] = sampling.Stratum{Name: r.Short(), Prior: priors[i]}
	}
	planner, err := sampling.NewPlanner(sampling.PlannerConfig{
		Confidence: confidence, Target: target, RoundSize: roundSize,
	}, strata)
	if err != nil {
		return nil, err
	}
	executed := make([]int, len(regions))
	errors := make([]int, len(regions))
	for {
		allocs := planner.NextRound()
		any := false
		for i, a := range allocs {
			for k := 0; k < a; k++ {
				manifested, err := errorAt(i, executed[i])
				if err != nil {
					return nil, err
				}
				if manifested {
					errors[i]++
				}
				executed[i]++
				any = true
			}
			if a > 0 {
				if err := planner.SetTally(i, errors[i], executed[i]); err != nil {
					return nil, err
				}
			}
		}
		if !any {
			return executed, nil
		}
	}
}

// AdaptiveEntriesForRound flattens a round's per-region allocations into
// plan entries, regions in campaign order and indices ascending — the
// exact order RunAdaptive executes and journals them.  The coordinator
// uses it to cut round leases that reproduce the single-process bytes.
func AdaptiveEntriesForRound(regions []Region, executed, allocs []int) []PlanEntry {
	var entries []PlanEntry
	for i := range regions {
		for k := 0; k < allocs[i]; k++ {
			entries = append(entries, PlanEntry{Region: regions[i], Index: executed[i] + k})
		}
	}
	return entries
}

// SortExperimentsByPlan orders experiments by (region order, index) —
// the fixed-n plan order.  Adaptive journals append rounds
// chronologically, so a merge re-sorts before tallying or re-emitting
// segments; the sort is stable on (region, index) which is unique per
// campaign.
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
