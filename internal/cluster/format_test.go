package cluster

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// checkFormatF64 holds formatF64 to its contract: the bytes strconv
// writes for 'f' at that precision (17 for a negative one), appended.
func checkFormatF64(t *testing.T, v float64, prec int) {
	t.Helper()
	want := prec
	if want < 0 {
		want = 17
	}
	exp := strconv.AppendFloat([]byte("x="), v, 'f', want, 64)
	if got := formatF64([]byte("x="), v, prec); string(got) != string(exp) {
		t.Fatalf("formatF64(%x = %g, %d) = %q, strconv %q", math.Float64bits(v), v, prec, got, exp)
	}
}

// formatF64Seeds are the values a fixed-point formatter gets wrong
// first: non-finite and zero of both signs, subnormals, negatives that
// round to zero, exact ties (round-half-even on either side), values
// whose scaled integer straddles 2^64, and the edges of fixedF64's range.
var formatF64Seeds = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072009e-308,
	-0.0004, 0.0005, 0.4, -0.4, 0.05,
	0.5, 1.5, 2.5, -0.5, -1.5, 0.125, 0.375, 0.0625, 1.0009765625, 2.5e-1, 8.5, 9.5, 99.5,
	0.999999, 9.9999995, 999.9995, 0.1, 1.0 / 3, 2.0 / 3, math.Pi, -math.E, 1e-7, 5e-18, 4.9e-18,
	184.4674407370955, 184.46744073709553, 18446744073709.55, 1.8446744073709552e19,
	1 << 52, 1<<52 - 0.5, 1<<53 - 1, 1 << 53, 1e15, 1e16, 1e22, 1e300, math.MaxFloat64,
}

func FuzzFormatF64(f *testing.F) {
	for _, v := range formatF64Seeds {
		for prec := -1; prec <= 18; prec++ {
			f.Add(math.Float64bits(v), prec+1)
		}
	}
	f.Fuzz(func(t *testing.T, bits uint64, p int) {
		// The guests ask for -1..17; 18..20 exercise the strconv fallback
		// without letting a fuzzed precision allocate gigabytes of zeros.
		checkFormatF64(t, math.Float64frombits(bits), p%22-1)
	})
}

// TestFormatF64RandomBits is the fuzz target's property over a fixed
// stream of bit patterns at every precision, so a plain `go test` (which
// runs the fuzz seeds) walks the rounding cases of all exponents too.
func TestFormatF64RandomBits(t *testing.T) {
	rng := rand.New(rand.NewSource(2004))
	for i := 0; i < 20000; i++ {
		bits := rng.Uint64()
		if i%2 == 0 {
			// Half the stream in the range guests print: |v| in [2^-40, 2^24).
			bits = bits&^(0x7ff<<52) | uint64(983+rng.Intn(64))<<52
		}
		for prec := -1; prec <= 18; prec++ {
			checkFormatF64(t, math.Float64frombits(bits), prec)
		}
	}
}

func BenchmarkFormatF64(b *testing.B) {
	vals := []float64{0, 1.25e-7, -0.0431278, 0.99873, 12.5, 1234.56789}
	buf := make([]byte, 0, 64)
	for i := 0; i < b.N; i++ {
		buf = formatF64(buf[:0], vals[i%len(vals)], 6)
	}
}
