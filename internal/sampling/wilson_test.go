package sampling

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// WilsonInterval returns the Wilson score interval [lo, hi] for a sample
// of n draws with x successes at the given confidence level:
//
//	center = (p + z²/2n) / (1 + z²/n)
//	half   = z/(1+z²/n) · sqrt(p(1-p)/n + z²/4n²)
//
// Unlike the Wald interval it never escapes [0,1] and stays honest at
// the extremes: x=0 yields [0, z²/(n+z²)], not a zero-width interval.
func WilsonInterval(confidence float64, x, n int) (lo, hi float64, err error) {
	if n <= 0 {
		return 0, 0, fmt.Errorf("sampling: n must be positive")
	}
	if x < 0 || x > n {
		return 0, 0, fmt.Errorf("sampling: successes %d outside [0,%d]", x, n)
	}
	z, err := ZForConfidence(confidence)
	if err != nil {
		return 0, 0, err
	}
	center, half := wilson(z, float64(x)/float64(n), float64(n))
	return math.Max(0, center-half), math.Min(1, center+half), nil
}

// NeededSamples returns the smallest n whose Wilson half-width at a
// fixed proportion p is at most d.  Because the Wilson half-width at
// p=0.5 is strictly below the Wald bound z·sqrt(0.25/n), the answer
// never exceeds SampleSize(confidence, d) — the planner's per-stratum
// cap is also its search ceiling.
func NeededSamples(confidence, d, p float64) (int, error) {
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("sampling: proportion %v outside [0,1]", p)
	}
	worst, err := SampleSize(confidence, d)
	if err != nil {
		return 0, err
	}
	z, err := ZForConfidence(confidence)
	if err != nil {
		return 0, err
	}
	// The half-width is monotonically decreasing in n for fixed p, so a
	// binary search over [1, worst] finds the boundary exactly.
	lo, hi := 1, worst
	for lo < hi {
		mid := (lo + hi) / 2
		if _, half := wilson(z, p, float64(mid)); half <= d {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
}

// Published Wilson score intervals from Newcombe, "Two-sided confidence
// intervals for the single proportion" (Statistics in Medicine 17, 1998),
// Table I — the standard reference values for the method.
func TestWilsonPublishedValues(t *testing.T) {
	cases := []struct {
		x, n   int
		lo, hi float64
	}{
		{81, 263, 0.2553, 0.3662},
		{15, 148, 0.0624, 0.1605},
		{0, 20, 0.0000, 0.1611},
		{1, 29, 0.0061, 0.1718},
	}
	for _, c := range cases {
		lo, hi, err := WilsonInterval(0.95, c.x, c.n)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(lo-c.lo) > 5e-4 || math.Abs(hi-c.hi) > 5e-4 {
			t.Errorf("Wilson(%d/%d) = [%.4f, %.4f], published [%.4f, %.4f]",
				c.x, c.n, lo, hi, c.lo, c.hi)
		}
	}
}

func TestWilsonHonestAtZero(t *testing.T) {
	// x=0 must NOT collapse to a zero-width interval (the Wald failure
	// mode the planner avoids): the upper bound is z²/(n+z²).
	lo, hi, err := WilsonInterval(0.95, 0, 50)
	if err != nil {
		t.Fatal(err)
	}
	z, _ := ZForConfidence(0.95)
	want := z * z / (50 + z*z)
	if lo != 0 || math.Abs(hi-want) > 1e-12 {
		t.Errorf("Wilson(0/50) = [%v, %v], want [0, %v]", lo, hi, want)
	}
	if hw, err := WilsonHalfWidth(0.95, 0, 50); err != nil || hw <= 0 {
		t.Errorf("half-width at x=0 must stay positive, got %v, %v", hw, err)
	}
}

func TestWilsonHalfWidthMatchesInterval(t *testing.T) {
	// Away from the clamped extremes the half-width is exactly half the
	// interval's width.
	lo, hi, err := WilsonInterval(0.95, 81, 263)
	if err != nil {
		t.Fatal(err)
	}
	hw, err := WilsonHalfWidth(0.95, 81, 263)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs((hi-lo)/2-hw) > 1e-12 {
		t.Errorf("half-width %v disagrees with interval [%v, %v]", hw, lo, hi)
	}
}

func TestWilsonCapMeetsPaperTarget(t *testing.T) {
	// The planner's guarantee: at the fixed-n cap the Wilson half-width is
	// below the Wald bound even at the worst-case p=0.5, so every stratum
	// is guaranteed to close by the time it exhausts the paper's budget.
	cap, err := SampleSize(0.95, 0.049)
	if err != nil {
		t.Fatal(err)
	}
	hw, err := WilsonHalfWidth(0.95, cap/2, cap)
	if err != nil {
		t.Fatal(err)
	}
	if hw > 0.049 {
		t.Errorf("half-width %.5f at the cap n=%d exceeds the target 0.049", hw, cap)
	}
}

func TestNeededSamplesKnownValues(t *testing.T) {
	// At the paper contract (95 %, d=4.9 %): worst case near 400, benign
	// strata an order of magnitude cheaper.  Values confirmed against a
	// direct scan of the Wilson half-width.
	z, err := ZForConfidence(0.95)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		p    float64
		want int
	}{
		{0.5, 397},
		{0.3, 333},
		{0.1, 147},
		{0.05, 87},
		{0.0, 36},
	}
	for _, c := range cases {
		n, err := NeededSamples(0.95, 0.049, c.p)
		if err != nil {
			t.Fatal(err)
		}
		if n != c.want {
			t.Errorf("NeededSamples(p=%v) = %d, want %d", c.p, n, c.want)
		}
		// The binary search must land exactly on the boundary: n meets the
		// target, n-1 does not.
		if _, hw := wilson(z, c.p, float64(n)); hw > 0.049 {
			t.Errorf("p=%v: n=%d does not meet the target (hw %v)", c.p, n, hw)
		}
		if n > 1 {
			if _, hw := wilson(z, c.p, float64(n-1)); hw <= 0.049 {
				t.Errorf("p=%v: n=%d already meets the target, NeededSamples overshot", c.p, n-1)
			}
		}
	}
}

func TestNeededSamplesNeverExceedsWorstCase(t *testing.T) {
	worst, err := SampleSize(0.95, 0.049)
	if err != nil {
		t.Fatal(err)
	}
	f := func(p1000 uint16) bool {
		p := float64(p1000%1001) / 1000
		n, err := NeededSamples(0.95, 0.049, p)
		return err == nil && n >= 1 && n <= worst
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWilsonErrorPaths(t *testing.T) {
	if _, _, err := WilsonInterval(0.95, 1, 0); err == nil {
		t.Error("n=0 accepted")
	}
	if _, _, err := WilsonInterval(0.95, 5, 4); err == nil {
		t.Error("x>n accepted")
	}
	if _, err := WilsonHalfWidth(0.95, -1, 4); err == nil {
		t.Error("x<0 accepted")
	}
	if _, err := NeededSamples(0.95, 0.049, -0.1); err == nil {
		t.Error("p<0 accepted")
	}
	if _, err := NeededSamples(1.2, 0.049, 0.5); err == nil {
		t.Error("confidence>1 accepted")
	}
}
