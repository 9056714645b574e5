package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d/64 identical draws between different seeds", same)
	}
}

func TestSplitIsStable(t *testing.T) {
	a := New(7).Split("chip")
	b := New(7).Split("chip")
	if a.Uint64() != b.Uint64() {
		t.Error("Split with same (seed,label) differs")
	}
	c := New(7).Split("core")
	d := New(7).Split("chip")
	if c.Uint64() == d.Uint64() {
		t.Error("different labels produced identical child streams")
	}
}

func TestSplitDoesNotAdvanceParent(t *testing.T) {
	a := New(9)
	want := New(9).Uint64()
	_ = a.Split("x")
	_ = a.SplitIndex("y", 3)
	if got := a.Uint64(); got != want {
		t.Errorf("parent stream advanced by splitting: got %#x want %#x", got, want)
	}
}

func TestSplitIndexDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	root := New(11)
	for i := 0; i < 100; i++ {
		v := root.SplitIndex("core", i).Uint64()
		if seen[v] {
			t.Fatalf("duplicate first draw for index %d", i)
		}
		seen[v] = true
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %g", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(5)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("uniform mean = %g, want ≈0.5", mean)
	}
}

func TestNormMoments(t *testing.T) {
	s := New(6)
	const n = 100000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := s.Norm(10, 3)
		sum += v
		sq += v * v
	}
	mean := sum / n
	std := math.Sqrt(sq/n - mean*mean)
	if math.Abs(mean-10) > 0.1 {
		t.Errorf("normal mean = %g, want ≈10", mean)
	}
	if math.Abs(std-3) > 0.1 {
		t.Errorf("normal stddev = %g, want ≈3", std)
	}
}

func TestTruncNormBounds(t *testing.T) {
	s := New(8)
	for i := 0; i < 5000; i++ {
		v := s.TruncNorm(0, 1, -0.5, 0.5)
		if v < -0.5 || v > 0.5 {
			t.Fatalf("TruncNorm escaped bounds: %g", v)
		}
	}
}

func TestExpMean(t *testing.T) {
	s := New(13)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := s.Exp(2)
		if v < 0 {
			t.Fatalf("Exp returned negative %g", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.02 {
		t.Errorf("Exp(2) mean = %g, want ≈0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	s := New(19)
	counts := make([]int, 7)
	for i := 0; i < 7000; i++ {
		counts[s.Intn(7)]++
	}
	for v, c := range counts {
		if c < 700 || c > 1300 {
			t.Errorf("Intn(7) value %d drawn %d times out of 7000", v, c)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestExpPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Exp(0) did not panic")
		}
	}()
	New(1).Exp(0)
}

func TestPermIsPermutation(t *testing.T) {
	prop := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
