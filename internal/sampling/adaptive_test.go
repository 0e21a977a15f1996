package sampling

import (
	"math"
	"reflect"
	"testing"
)

// population is a deterministic synthetic fault population: member i of a
// stratum manifests iff a hash of (stratumSeed, i) falls below the
// stratum's true rate.  Any prefix of it behaves like an iid sample, so
// the planner's prefix-growing schedule estimates the same proportion an
// exhaustive enumeration measures.
type population struct {
	seed uint64
	rate float64
}

func (p population) errorAt(i int) bool {
	x := p.seed + uint64(i)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x%1_000_000)/1_000_000 < p.rate
}

func (p population) exhaustive(n int) float64 {
	errs := 0
	for i := 0; i < n; i++ {
		if p.errorAt(i) {
			errs++
		}
	}
	return float64(errs) / float64(n)
}

// drive runs the planner to completion against the populations and
// returns the per-round allocation history plus the final snapshot.
func drive(t *testing.T, planner *Planner, pops []population) ([][]int, []StratumState) {
	t.Helper()
	executed := make([]int, len(pops))
	errors := make([]int, len(pops))
	var history [][]int
	for round := 0; ; round++ {
		if round > 1000 {
			t.Fatal("planner did not terminate")
		}
		allocs := planner.NextRound()
		history = append(history, append([]int(nil), allocs...))
		any := false
		for i, a := range allocs {
			for k := 0; k < a; k++ {
				if pops[i].errorAt(executed[i]) {
					errors[i]++
				}
				executed[i]++
				any = true
			}
			if a > 0 {
				if err := planner.SetTally(i, errors[i], executed[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		if !any {
			return history, planner.Snapshot()
		}
	}
}

func paperPlanner(t *testing.T, strata []Stratum) *Planner {
	t.Helper()
	p, err := NewPlanner(PlannerConfig{Confidence: 0.95, Target: 0.049}, strata)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPlannerDeterministicRounds(t *testing.T) {
	strata := []Stratum{
		{Name: "hot", Prior: 0.6},
		{Name: "warm", Prior: 0.12},
		{Name: "cold", Prior: 0.01},
	}
	pops := []population{{seed: 11, rate: 0.62}, {seed: 22, rate: 0.10}, {seed: 33, rate: 0.0}}
	h1, s1 := drive(t, paperPlanner(t, strata), pops)
	h2, s2 := drive(t, paperPlanner(t, strata), pops)
	if !reflect.DeepEqual(h1, h2) {
		t.Errorf("round histories diverged:\n%v\n%v", h1, h2)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Errorf("final snapshots diverged:\n%v\n%v", s1, s2)
	}
}

func TestPlannerAgreesWithExhaustiveEnumeration(t *testing.T) {
	// The unbiasedness property the satellite demands: the planner's
	// stopped estimate agrees with exhaustively enumerating a large
	// synthetic population, within the CI target it stopped at.
	const popSize = 200_000
	strata := []Stratum{
		{Name: "reg", Prior: 0.5},
		{Name: "data", Prior: 0.5},
		{Name: "heap", Prior: 0.5},
		{Name: "text", Prior: 0.5},
	}
	pops := []population{
		{seed: 101, rate: 0.55},
		{seed: 202, rate: 0.20},
		{seed: 303, rate: 0.04},
		{seed: 404, rate: 0.0},
	}
	planner := paperPlanner(t, strata)
	_, snap := drive(t, planner, pops)
	for i, s := range snap {
		if !s.Closed {
			t.Fatalf("stratum %s never closed", s.Name)
		}
		if s.HalfWidth > planner.Config().Target {
			if s.Executed < planner.Cap() {
				t.Errorf("%s: open half-width %v below the cap", s.Name, s.HalfWidth)
			}
			continue // cap-closed: the fixed-n guarantee applies instead
		}
		est := float64(s.Errors) / float64(s.Executed)
		truth := pops[i].exhaustive(popSize)
		if math.Abs(est-truth) > planner.Config().Target {
			t.Errorf("%s: estimate %.4f vs exhaustive %.4f differ beyond d=%.3f (n=%d)",
				s.Name, est, truth, planner.Config().Target, s.Executed)
		}
	}
}

func TestPlannerZeroErrorStratumClosesAtPilot(t *testing.T) {
	// A stratum the AVF analysis flags as near-benign pilots at the
	// pilotSize floor, and with zero manifestations closes right there:
	// Wilson at 0/48 is already inside d=4.9 %, so the paper's worst-case
	// 400 draws shrink to one pilot round.
	planner := paperPlanner(t, []Stratum{{Name: "benign", Prior: 0.001}})
	history, snap := drive(t, planner, []population{{seed: 1, rate: 0}})
	if got := snap[0].Executed; got != pilotSize {
		t.Errorf("zero-error stratum executed %d, want the pilot %d", got, pilotSize)
	}
	// history = pilot round + the all-zero terminating round.
	if len(history) != 2 {
		t.Errorf("took %d rounds, want pilot + terminator", len(history))
	}
	if !snap[0].Closed || snap[0].Errors != 0 {
		t.Errorf("unexpected final state %+v", snap[0])
	}
	// Even a worst-case prior closes a silent stratum after one round —
	// it just spends the full round getting there.
	planner = paperPlanner(t, []Stratum{{Name: "unknown", Prior: 0.5}})
	_, snap = drive(t, planner, []population{{seed: 1, rate: 0}})
	if got := snap[0].Executed; got != DefaultRoundSize {
		t.Errorf("0.5-prior zero-error stratum executed %d, want one round of %d", got, DefaultRoundSize)
	}
}

func TestPlannerPriorSizesPilot(t *testing.T) {
	// The AVF prior steers the first draw: a stratum believed benign
	// pilots at NeededSamples(prior) instead of burning a full round.
	planner := paperPlanner(t, []Stratum{
		{Name: "hot", Prior: 0.5},
		{Name: "cool", Prior: 0.05},
	})
	allocs := planner.NextRound()
	wantCool, err := NeededSamples(0.95, 0.049, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if allocs[0] != DefaultRoundSize {
		t.Errorf("hot pilot %d, want the full round %d", allocs[0], DefaultRoundSize)
	}
	if allocs[1] != wantCool {
		t.Errorf("cool pilot %d, want NeededSamples(0.05) = %d", allocs[1], wantCool)
	}
	// Out-of-range priors fall back to the paper's worst case.
	fallback := paperPlanner(t, []Stratum{{Name: "nan", Prior: math.NaN()}, {Name: "neg", Prior: -2}})
	for i, a := range fallback.NextRound() {
		if a != DefaultRoundSize {
			t.Errorf("stratum %d with unusable prior piloted %d, want %d", i, a, DefaultRoundSize)
		}
	}
}

func TestPlannerNeverExceedsCapAndAlwaysTerminates(t *testing.T) {
	// Adversarial tallies: proportions hovering at 0.5 force the maximum
	// spend, which must stop exactly at the fixed-n cap.
	planner := paperPlanner(t, []Stratum{{Name: "worst", Prior: 0.5}})
	_, snap := drive(t, planner, []population{{seed: 77, rate: 0.5}})
	if snap[0].Executed > planner.Cap() {
		t.Errorf("executed %d beyond the cap %d", snap[0].Executed, planner.Cap())
	}
	// At true rate 0.5 the spend must approach the fixed-n worst case
	// (closing a draw or two early is legitimate when p̂ drifts off 0.5,
	// but an order-of-magnitude saving would mean the stopping rule lies).
	if snap[0].Executed < planner.Cap()*9/10 {
		t.Errorf("worst-case stratum stopped at %d, suspiciously far below the cap %d",
			snap[0].Executed, planner.Cap())
	}
	if !snap[0].Closed || snap[0].HalfWidth > planner.Config().Target {
		t.Errorf("stratum closed without meeting the target: %+v", snap[0])
	}
	if !planner.Done() {
		t.Error("planner not done after the terminating round")
	}
	if spent, fixed := planner.TotalExecuted(), planner.FixedTotal(); spent > fixed {
		t.Errorf("spent %d experiments, above the fixed-n design's %d", spent, fixed)
	}
}

func TestPlannerTallyValidation(t *testing.T) {
	planner := paperPlanner(t, []Stratum{{Name: "s", Prior: 0.5}})
	if err := planner.SetTally(1, 0, 0); err == nil {
		t.Error("out-of-range stratum accepted")
	}
	if err := planner.SetTally(0, 5, 4); err == nil {
		t.Error("errors > executed accepted")
	}
	if err := planner.SetTally(0, 0, planner.Cap()+1); err == nil {
		t.Error("executed beyond cap accepted")
	}
	if err := planner.SetTally(0, -1, 4); err == nil {
		t.Error("negative errors accepted")
	}
}

func TestNewPlannerValidation(t *testing.T) {
	if _, err := NewPlanner(PlannerConfig{Confidence: 0.95, Target: 0.049}, nil); err == nil {
		t.Error("empty strata accepted")
	}
	if _, err := NewPlanner(PlannerConfig{Confidence: 0.95, Target: 0}, []Stratum{{Name: "s"}}); err == nil {
		t.Error("zero target accepted")
	}
	if _, err := NewPlanner(PlannerConfig{Confidence: 0.95, Target: 0.049, RoundSize: -1}, []Stratum{{Name: "s"}}); err == nil {
		t.Error("negative round size accepted")
	}
}
