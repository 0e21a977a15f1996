package sampling

import (
	"math"
	"testing"
	"testing/quick"
)

func TestZForConfidenceKnownValues(t *testing.T) {
	cases := []struct {
		conf, z float64
	}{
		{0.90, 1.6449},
		{0.95, 1.9600},
		{0.99, 2.5758},
	}
	for _, c := range cases {
		z, err := ZForConfidence(c.conf)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(z-c.z) > 5e-4 {
			t.Errorf("z(%v) = %v, want %v", c.conf, z, c.z)
		}
	}
}

func TestZRejectsBadConfidence(t *testing.T) {
	for _, c := range []float64{0, 1, -0.5, 1.5} {
		if _, err := ZForConfidence(c); err == nil {
			t.Errorf("confidence %v should be rejected", c)
		}
	}
}

func TestSampleSizeMatchesFormula(t *testing.T) {
	// The classic: 95% confidence, 5% error -> n >= 0.25*(1.96/0.05)^2 = 385.
	n, err := SampleSize(0.95, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if n != 385 {
		t.Fatalf("SampleSize(0.95, 0.05) = %d, want 385", n)
	}
}

func TestPaperSection43Numbers(t *testing.T) {
	// §4.3: "we performed 400-500 injections in most regions.  With a
	// confidence interval of 95 percent ... the estimation error d is
	// 4.4-4.9 percent."
	d400, err := EstimationError(0.95, 400)
	if err != nil {
		t.Fatal(err)
	}
	d500, err := EstimationError(0.95, 500)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d400-0.049) > 0.001 {
		t.Errorf("d(n=400) = %.4f, paper says ~4.9%%", d400)
	}
	if math.Abs(d500-0.0438) > 0.001 {
		t.Errorf("d(n=500) = %.4f, paper says ~4.4%%", d500)
	}
}

func TestEstimationErrorInvertsSampleSize(t *testing.T) {
	// Round trip: sample size for error d achieves error <= d.
	for _, d := range []float64{0.02, 0.044, 0.05, 0.1} {
		n, err := SampleSize(0.95, d)
		if err != nil {
			t.Fatal(err)
		}
		got, err := EstimationError(0.95, n)
		if err != nil {
			t.Fatal(err)
		}
		if got > d+1e-9 {
			t.Errorf("n=%d gives error %v, wanted <= %v", n, got, d)
		}
	}
}

func TestEstimationErrorDecreasesWithN(t *testing.T) {
	prev := math.Inf(1)
	for _, n := range []int{10, 100, 400, 500, 1000, 2000} {
		d, err := EstimationError(0.95, n)
		if err != nil {
			t.Fatal(err)
		}
		if d >= prev {
			t.Fatalf("estimation error not decreasing at n=%d", n)
		}
		prev = d
	}
}

func TestQuantileSymmetry(t *testing.T) {
	f := func(u uint16) bool {
		p := (float64(u%9998) + 1) / 10000 // (0, 1)
		return math.Abs(normQuantile(p)+normQuantile(1-p)) < 1e-8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantileRoundTripsCDF(t *testing.T) {
	// Phi(Phi^-1(p)) == p to high accuracy across the domain.
	for _, p := range []float64{1e-6, 0.001, 0.025, 0.2, 0.5, 0.8, 0.975, 0.999, 1 - 1e-6} {
		x := normQuantile(p)
		back := 0.5 * math.Erfc(-x/math.Sqrt2)
		if math.Abs(back-p) > 1e-9 {
			t.Errorf("round trip at p=%v: got %v", p, back)
		}
	}
}

func TestErrorPaths(t *testing.T) {
	if _, err := SampleSize(0.95, 0); err == nil {
		t.Error("d=0 must error")
	}
	if _, err := EstimationError(0.95, 0); err == nil {
		t.Error("n=0 must error")
	}
}
