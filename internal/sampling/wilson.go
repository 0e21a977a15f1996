// Wilson score intervals.  The Wald interval in ConfidenceInterval is
// what the paper quotes, but it degenerates at the proportions fault
// campaigns actually meet (p near 0 for text/heap faults: the Wald
// half-width collapses to zero at p=0 no matter how few samples ran).
// The adaptive planner's sequential stopping rule therefore gates on the
// Wilson score interval, whose coverage stays near nominal across the
// whole [0,1] range and whose half-width is well-defined at p=0.
package sampling

import (
	"fmt"
	"math"
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

// WilsonHalfWidth returns half the width of the Wilson score interval
// for x successes in n draws — the quantity the sequential stopping rule
// compares against the target estimation error d.
func WilsonHalfWidth(confidence float64, x, n int) (float64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("sampling: n must be positive")
	}
	if x < 0 || x > n {
		return 0, fmt.Errorf("sampling: successes %d outside [0,%d]", x, n)
	}
	z, err := ZForConfidence(confidence)
	if err != nil {
		return 0, err
	}
	_, half := wilson(z, float64(x)/float64(n), float64(n))
	return half, nil
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

// wilson returns the center and half-width of the Wilson score interval
// at proportion p over n draws for normal quantile z.
func wilson(z, p, n float64) (center, half float64) {
	zz := z * z
	denom := 1 + zz/n
	center = (p + zz/(2*n)) / denom
	half = z / denom * math.Sqrt(p*(1-p)/n+zz/(4*n*n))
	return center, half
}
