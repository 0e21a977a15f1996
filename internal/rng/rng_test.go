package rng

import (
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(12345), New(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions between different seeds", same)
	}
}

func TestIntnBounds(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		m := int(n%1000) + 1
		r := New(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(m)
			if v < 0 || v >= m {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) must panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nUniformBuckets(t *testing.T) {
	// Chi-squared-ish smoke test: 10 buckets over 100k draws should each
	// hold close to 10k.
	r := New(99)
	const draws = 100000
	var buckets [10]int
	for i := 0; i < draws; i++ {
		buckets[r.Uint64n(10)]++
	}
	for i, c := range buckets {
		if c < 9000 || c > 11000 {
			t.Errorf("bucket %d holds %d of %d draws", i, c, draws)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v outside [0,1)", v)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(42)
	s := r.Split()
	// The split stream must not simply replay the parent.
	matches := 0
	for i := 0; i < 100; i++ {
		if r.Uint64() == s.Uint64() {
			matches++
		}
	}
	if matches > 0 {
		t.Fatalf("%d collisions between parent and split streams", matches)
	}
}

func TestDeriveIsStableAndLabelled(t *testing.T) {
	base := New(5)
	a := base.Derive(1, 2)
	b := base.Derive(1, 2)
	c := base.Derive(2, 1)
	if a.Uint64() != b.Uint64() {
		t.Fatal("Derive with identical labels must be deterministic")
	}
	a2 := base.Derive(1, 2)
	if a2.Uint64() == c.Uint64() {
		t.Fatal("Derive must distinguish label order")
	}
	// Derive must not advance the base generator.
	x, y := New(5), New(5)
	x.Derive(9)
	if x.Uint64() != y.Uint64() {
		t.Fatal("Derive advanced the receiver")
	}
}

func TestZeroValueUsable(t *testing.T) {
	var r Rand
	_ = r.Uint64()
	_ = r.Intn(5)
}

func TestBoolRoughlyFair(t *testing.T) {
	r := New(11)
	trues := 0
	for i := 0; i < 10000; i++ {
		if r.Bool() {
			trues++
		}
	}
	if trues < 4500 || trues > 5500 {
		t.Fatalf("Bool() returned true %d/10000 times", trues)
	}
}
