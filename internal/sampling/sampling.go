// Package sampling implements the Cochran sampling theory the paper uses
// to size its injection experiments (§4.3).
//
// The injection space (bit × process × time) is far too large to cover,
// so the campaign draws n random points and estimates each manifestation
// class's population proportion P from its sample proportion p.  The
// sample size needed for Pr(|P-p| < d) >= 1-alpha is
//
//	n >= P(1-P) (z_{alpha/2} / d)^2
//
// and because P is unknown, the paper oversamples with P = 0.5, giving
// n >= 0.25 (z/d)^2.  With 400-500 injections per region this yields an
// estimation error of 4.4-4.9 % at 95 % confidence — the numbers quoted
// in §4.3.
package sampling

import (
	"fmt"
	"math"
)

// ZForConfidence returns the double-tailed alpha point z_{alpha/2} of the
// standard normal distribution for the given confidence level 1-alpha
// (e.g. 0.95 -> 1.959964...).
func ZForConfidence(confidence float64) (float64, error) {
	if confidence <= 0 || confidence >= 1 {
		return 0, fmt.Errorf("sampling: confidence %v outside (0,1)", confidence)
	}
	alpha := 1 - confidence
	return normQuantile(1 - alpha/2), nil
}

// SampleSize returns the minimum n such that the estimation error is at
// most d at the given confidence, using the paper's oversampling P = 0.5.
func SampleSize(confidence, d float64) (int, error) {
	if d <= 0 || d >= 1 {
		return 0, fmt.Errorf("sampling: error bound %v outside (0,1)", d)
	}
	z, err := ZForConfidence(confidence)
	if err != nil {
		return 0, err
	}
	return int(math.Ceil(0.25 * (z / d) * (z / d))), nil
}

// SampleSizeFor returns the minimum n for a known (or assumed) population
// proportion P: n >= P(1-P)(z/d)^2.
func SampleSizeFor(confidence, d, p float64) (int, error) {
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("sampling: proportion %v outside [0,1]", p)
	}
	if d <= 0 || d >= 1 {
		return 0, fmt.Errorf("sampling: error bound %v outside (0,1)", d)
	}
	z, err := ZForConfidence(confidence)
	if err != nil {
		return 0, err
	}
	return int(math.Ceil(p * (1 - p) * (z / d) * (z / d))), nil
}

// EstimationError returns the error bound d achieved by n samples at the
// given confidence with oversampling: d = z * sqrt(0.25/n).  For the
// paper's n in [400, 500] at 95 % confidence this is 4.4-4.9 %.
func EstimationError(confidence float64, n int) (float64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("sampling: n must be positive")
	}
	z, err := ZForConfidence(confidence)
	if err != nil {
		return 0, err
	}
	return z * math.Sqrt(0.25/float64(n)), nil
}

// Describe renders the §4.3 sizing summary for a campaign of n
// injections per region, e.g. "n=500 per region -> estimation error
// 4.4% at 95% confidence".  Both CLIs print it, so the wording lives
// here once.
func Describe(confidence float64, n int) (string, error) {
	d, err := EstimationError(confidence, n)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("n=%d per region -> estimation error %.1f%% at %.0f%% confidence",
		n, 100*d, 100*confidence), nil
}

// ConfidenceInterval returns the Wald interval [lo, hi] (clamped to
// [0, 1]) for a sample proportion p observed over n samples.
func ConfidenceInterval(confidence float64, p float64, n int) (lo, hi float64, err error) {
	if n <= 0 {
		return 0, 0, fmt.Errorf("sampling: n must be positive")
	}
	if p < 0 || p > 1 {
		return 0, 0, fmt.Errorf("sampling: proportion %v outside [0,1]", p)
	}
	z, err := ZForConfidence(confidence)
	if err != nil {
		return 0, 0, err
	}
	half := z * math.Sqrt(p*(1-p)/float64(n))
	return math.Max(0, p-half), math.Min(1, p+half), nil
}

// normQuantile computes the standard normal quantile function via the
// Acklam rational approximation (relative error < 1.15e-9), refined by
// one Halley step against erfc, which is plenty for experiment sizing.
func normQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	// Coefficients for the central and tail regions.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}

	const plow = 0.02425
	var x float64
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-plow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Halley refinement using the exact CDF via erfc.
	e := 0.5*math.Erfc(-x/math.Sqrt2) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	return x - u/(1+x*u/2)
}
