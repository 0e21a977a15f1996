// Package rng provides a small, deterministic, splittable pseudo-random
// number generator used throughout the fault-injection campaigns.
//
// Reproducibility is a hard requirement for fault-injection research: a
// campaign seeded with the same value must choose exactly the same fault
// locations, ranks and trigger times on every run, on every platform.  The
// generator is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014), which is tiny,
// fast, passes BigCrush, and — unlike math/rand — supports cheap splitting so
// that every injection experiment can own an independent stream derived from
// the campaign seed.
package rng

// golden gamma constant for SplitMix64 state advancement.
const gamma = 0x9e3779b97f4a7c15

// Rand is a deterministic SplitMix64 generator.  The zero value is a valid
// generator seeded with 0.  Rand is not safe for concurrent use; use Split to
// derive independent generators for concurrent work.
type Rand struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *Rand {
	return &Rand{state: seed}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	r.state += gamma
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint32 returns the next 32 uniformly distributed bits.
func (r *Rand) Uint32() uint32 {
	return uint32(r.Uint64() >> 32)
}

// Intn returns a uniformly distributed integer in [0, n).  It panics if
// n <= 0.  The implementation uses rejection sampling so the result is
// exactly uniform.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniformly distributed integer in [0, n).  It panics if
// n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	// Rejection sampling: draw until the value falls inside the largest
	// multiple of n representable in 64 bits.
	max := ^uint64(0) - ^uint64(0)%n
	for {
		v := r.Uint64()
		if v < max {
			return v % n
		}
	}
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns a uniformly distributed boolean.
func (r *Rand) Bool() bool {
	return r.Uint64()&1 == 1
}

// Split returns a new generator whose stream is statistically independent of
// the receiver's.  The receiver advances by one step.
func (r *Rand) Split() *Rand {
	return &Rand{state: r.Uint64()}
}

// Derive returns a generator deterministically derived from the receiver's
// seed and the given labels, without advancing the receiver.  Two Derive
// calls with the same labels yield identical generators, which lets a
// campaign hand experiment i an independent, reproducible stream.
func (r *Rand) Derive(labels ...uint64) *Rand {
	s := r.state
	for _, l := range labels {
		s = mix(s ^ (l + gamma))
	}
	return &Rand{state: s}
}

// SplitInto seeds dst with the stream Split would return, without
// allocating.  The receiver advances by one step, exactly as in Split.
func (r *Rand) SplitInto(dst *Rand) {
	dst.state = r.Uint64()
}

// DeriveInto seeds dst with the stream Derive(labels...) would return,
// without allocating a new generator; the receiver is not advanced.
// Campaign workers use it to re-seed pooled per-experiment generators.
func (r *Rand) DeriveInto(dst *Rand, labels ...uint64) {
	s := r.state
	for _, l := range labels {
		s = mix(s ^ (l + gamma))
	}
	dst.state = s
}

func mix(z uint64) uint64 {
	z = (z ^ (z >> 33)) * 0xff51afd7ed558ccd
	z = (z ^ (z >> 33)) * 0xc4ceb9fe1a85ec53
	return z ^ (z >> 33)
}
