package core

// Adaptive campaigns: sequential stopping on top of the fixed-seed
// experiment space.
//
// The crucial property making adaptivity compatible with the repo's
// byte-identity gates is that every experiment's outcome is a pure
// function of (Seed, Region, Index) — the planner only decides WHICH
// indices run, never what they do.  An adaptive Run therefore executes, for
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

// NormalizeAdaptive applies the adaptive defaults to a config in place,
// validates the combination, and sizes Injections to the per-stratum
// fixed-n cap (the plan the journal header records).  It is idempotent,
// so callers may normalize once to build a header and Run again.
// Returns the cap.
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

// roundMeters announce each adaptive round the frontier has passed to
// the planner metrics and Config.OnRound.
type roundMeters struct {
	onRound   func(AdaptiveStats)
	rounds    *telemetry.Counter
	open      *telemetry.Gauge
	halfWidth []*telemetry.Gauge
	reported  int // rounds already announced
}

func newRoundMeters(cfg *Config) *roundMeters {
	m := &roundMeters{
		onRound: cfg.OnRound,
		rounds:  cfg.Metrics.Counter(telemetry.MetricAdaptiveRounds),
		open:    cfg.Metrics.Gauge(telemetry.MetricAdaptiveOpen),
	}
	for _, r := range cfg.Regions {
		m.halfWidth = append(m.halfWidth, cfg.Metrics.Gauge(telemetry.AdaptiveHalfWidthMetric(r.Short())))
	}
	m.open.Set(int64(len(cfg.Regions)))
	return m
}

// announce reports stats if it completed rounds not yet announced.
func (m *roundMeters) announce(stats *AdaptiveStats) {
	if stats.Rounds <= m.reported {
		return
	}
	m.rounds.Add(uint64(stats.Rounds - m.reported))
	m.reported = stats.Rounds
	open := 0
	for i := range stats.Strata {
		m.halfWidth[i].Set(int64(stats.Strata[i].HalfWidth * 10_000))
		if !stats.Strata[i].Closed {
			open++
		}
	}
	m.open.Set(int64(open))
	if m.onRound != nil {
		m.onRound(*stats)
	}
}

// RunAdaptive runs cfg as an adaptive campaign.  Run does all of it; the
// next benchmark change deletes this wrapper.
func RunAdaptive(cfg Config) (*Result, error) {
	cfg.Adaptive = true
	return Run(cfg)
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
