// The adaptive campaign planner: stratified sequential sampling with a
// deterministic round-based stopping rule.
//
// The paper sizes every region with the worst-case fixed n ≥ 0.25(z/d)²
// (§4.3) because it assumes nothing about the unknown proportion P.  A
// campaign that watches its own tallies can do better: most regions sit
// far from P=0.5 (text and heap faults rarely manifest), so their Wilson
// intervals tighten to the target d long before the worst-case count.
// The planner runs each stratum (region) in rounds, extends only the
// strata whose confidence interval is still wider than d, and stops a
// stratum once its Wilson half-width reaches the target — never
// exceeding the fixed-n cap, so adaptive campaigns are always a subset
// of the worst-case campaign.
//
// Determinism contract: the next round's per-stratum allocation is a
// pure function of (priors, target, confidence, round size,
// integer tallies-so-far).  The planner holds no RNG and never consults
// the clock; given the same observed outcomes it reproduces the same
// rounds, which is what lets a coordinator-driven cluster campaign and a
// single-process run produce byte-identical journals, and what lets
// faultmerge re-validate a finished journal by replaying the planner
// over the recorded outcomes.
package sampling

import "fmt"

// Default knobs of the round schedule.  They are compile-time constants
// rather than configuration so that a journal header pinning
// (confidence, target, round size, priors) fully determines the replay.
const (
	// DefaultRoundSize bounds how many new experiments a single round
	// may add to one stratum.  Rounds are barriers — distributed workers
	// drain a round completely before the planner sees its tallies — so
	// the size trades scheduling overhead against overshoot past the
	// stopping point.
	DefaultRoundSize = 96

	// pilotSize is the minimum first-round draw per stratum: enough that
	// the pilot proportion is worth reacting to, and already past the
	// stopping point for strata that turn out to be all-benign (a
	// zero-error stratum closes at n ≥ z²(1/2d − 1) ≈ 36 for the
	// paper's d=4.9 %).
	pilotSize = 48

	// minStep is the minimum per-round growth of an open stratum, so a
	// needed-sample estimate that undershoots (the proportion drifted
	// toward 0.5 as draws came in) still makes progress every round.
	minStep = 8
)

// Stratum describes one sampling stratum (a fault region) given to the
// planner: a display name and a static prior for its manifestation
// proportion, used only to size the pilot round.  Priors outside (0,1)
// mean "unknown" and fall back to the paper's worst case 0.5.
type Stratum struct {
	Name  string
	Prior float64
}

// PlannerConfig fixes the estimation contract of an adaptive campaign.
type PlannerConfig struct {
	Confidence float64 // CI level, e.g. 0.95
	Target     float64 // target half-width d, e.g. 0.049 (§4.3 paper parity)
	RoundSize  int     // per-stratum per-round allocation bound; 0 = DefaultRoundSize
}

// StratumState is a read-only snapshot of one stratum's progress.
type StratumState struct {
	Name      string
	Prior     float64 // effective pilot prior (0.5 where unknown)
	Executed  int     // cumulative experiments observed
	Errors    int     // cumulative manifestations among them
	HalfWidth float64 // Wilson half-width at the current tally (0.5 before any draw)
	Closed    bool    // stopping rule satisfied (or cap reached)
}

// Planner runs the sequential stopping rule.  It does not execute
// anything itself: callers alternate NextRound (how many more draws each
// stratum needs) with SetTally (the cumulative outcomes so far) until
// NextRound returns all zeros.
type Planner struct {
	cfg    PlannerConfig
	z      float64
	cap    int
	strata []plannerStratum
}

type plannerStratum struct {
	name     string
	prior    float64
	executed int
	errors   int
}

// NewPlanner validates the configuration and builds a planner over the
// given strata.  The per-stratum cap is the paper's fixed-n worst case
// SampleSize(confidence, target); because the Wilson half-width at the
// cap is below the Wald bound d, every stratum is guaranteed to close.
func NewPlanner(cfg PlannerConfig, strata []Stratum) (*Planner, error) {
	if len(strata) == 0 {
		return nil, fmt.Errorf("sampling: planner needs at least one stratum")
	}
	if cfg.RoundSize == 0 {
		cfg.RoundSize = DefaultRoundSize
	}
	if cfg.RoundSize < 1 {
		return nil, fmt.Errorf("sampling: round size %d must be positive", cfg.RoundSize)
	}
	cap, err := SampleSize(cfg.Confidence, cfg.Target)
	if err != nil {
		return nil, err
	}
	z, err := ZForConfidence(cfg.Confidence)
	if err != nil {
		return nil, err
	}
	p := &Planner{cfg: cfg, z: z, cap: cap}
	for _, s := range strata {
		prior := s.Prior
		if !(prior > 0 && prior < 1) { // also rejects NaN
			prior = 0.5
		}
		p.strata = append(p.strata, plannerStratum{name: s.Name, prior: prior})
	}
	return p, nil
}

// Cap returns the per-stratum experiment cap — the fixed-n count the
// paper would have used for every stratum.
func (p *Planner) Cap() int { return p.cap }

// Config returns the planner's estimation contract.
func (p *Planner) Config() PlannerConfig { return p.cfg }

// SetTally records the cumulative outcome counts of a stratum: executed
// experiments so far and how many of them manifested as errors.
func (p *Planner) SetTally(stratum, errors, executed int) error {
	if stratum < 0 || stratum >= len(p.strata) {
		return fmt.Errorf("sampling: stratum %d outside [0,%d)", stratum, len(p.strata))
	}
	if executed < 0 || executed > p.cap {
		return fmt.Errorf("sampling: executed %d outside [0,%d]", executed, p.cap)
	}
	if errors < 0 || errors > executed {
		return fmt.Errorf("sampling: errors %d outside [0,%d]", errors, executed)
	}
	p.strata[stratum].errors = errors
	p.strata[stratum].executed = executed
	return nil
}

// halfWidth returns the Wilson half-width of a stratum's current tally;
// 0.5 (the widest possible interval over [0,1]) before any draw.
func (p *Planner) halfWidth(s *plannerStratum) float64 {
	if s.executed == 0 {
		return 0.5
	}
	_, half := wilson(p.z, float64(s.errors)/float64(s.executed), float64(s.executed))
	return half
}

// closed reports whether a stratum's stopping rule is satisfied: the
// Wilson half-width reached the target d, or the fixed-n cap ran out.
func (p *Planner) closed(s *plannerStratum) bool {
	if s.executed >= p.cap {
		return true
	}
	return s.executed > 0 && p.halfWidth(s) <= p.cfg.Target
}

// Done reports whether every stratum is closed.
func (p *Planner) Done() bool {
	for i := range p.strata {
		if !p.closed(&p.strata[i]) {
			return false
		}
	}
	return true
}

// NextRound returns the next round's per-stratum allocation — how many
// additional experiments each stratum runs — as a pure function of the
// current tallies.  All zeros means the campaign is done.
//
// Open strata are sized toward the smallest n whose Wilson half-width at
// the current proportion (the static prior before any draw) meets the
// target, clamped to [minStep, RoundSize] per round and to the cap
// overall.  Sensitive strata (proportion near 0.5) therefore draw large
// rounds while near-degenerate ones stop at their pilot — the
// oversampling the static AVF estimates pay for.
func (p *Planner) NextRound() []int {
	allocs := make([]int, len(p.strata))
	for i := range p.strata {
		s := &p.strata[i]
		if p.closed(s) {
			continue
		}
		prop := s.prior
		floor := pilotSize
		if s.executed > 0 {
			prop = float64(s.errors) / float64(s.executed)
			floor = minStep
		}
		need := p.neededAt(prop) - s.executed
		if need < floor {
			need = floor
		}
		if need > p.cfg.RoundSize {
			need = p.cfg.RoundSize
		}
		if room := p.cap - s.executed; need > room {
			need = room
		}
		allocs[i] = need
	}
	return allocs
}

// neededAt is NeededSamples against the planner's own z and target,
// with the proportion's contribution evaluated exactly like halfWidth
// so the search agrees with the stopping rule.
func (p *Planner) neededAt(prop float64) int {
	lo, hi := 1, p.cap
	for lo < hi {
		mid := (lo + hi) / 2
		if _, half := wilson(p.z, prop, float64(mid)); half <= p.cfg.Target {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Snapshot returns the per-stratum progress in stratum order.
func (p *Planner) Snapshot() []StratumState {
	out := make([]StratumState, len(p.strata))
	for i := range p.strata {
		s := &p.strata[i]
		out[i] = StratumState{
			Name:      s.name,
			Prior:     s.prior,
			Executed:  s.executed,
			Errors:    s.errors,
			HalfWidth: p.halfWidth(s),
			Closed:    p.closed(s),
		}
	}
	return out
}

// TotalExecuted returns the cumulative experiment count across strata.
func (p *Planner) TotalExecuted() int {
	var n int
	for i := range p.strata {
		n += p.strata[i].executed
	}
	return n
}

// FixedTotal returns the experiment count the fixed-n design would have
// spent on the same strata.
func (p *Planner) FixedTotal() int { return p.cap * len(p.strata) }
