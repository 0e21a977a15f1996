// Wilson score intervals.  The Wald interval is what the paper quotes, but it degenerates at the proportions fault
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

// wilson returns the center and half-width of the Wilson score interval
// at proportion p over n draws for normal quantile z.
func wilson(z, p, n float64) (center, half float64) {
	zz := z * z
	denom := 1 + zz/n
	center = (p + zz/(2*n)) / denom
	half = z / denom * math.Sqrt(p*(1-p)/n+zz/(4*n*n))
	return center, half
}
