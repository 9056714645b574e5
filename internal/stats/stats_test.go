package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %g", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %g", got)
	}
}

func TestVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almost(got, 4.571428571428571, 1e-12) {
		t.Errorf("Variance = %g", got)
	}
	if got := StdDev(xs); !almost(got, math.Sqrt(4.571428571428571), 1e-12) {
		t.Errorf("StdDev = %g", got)
	}
	if got := Variance([]float64{5}); got != 0 {
		t.Errorf("Variance single = %g", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if got := Min(xs); got != -1 {
		t.Errorf("Min = %g", got)
	}
	if got := Max(xs); got != 7 {
		t.Errorf("Max = %g", got)
	}
}

func TestMinPanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Min(empty) did not panic")
		}
	}()
	Min(nil)
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {10, 1.4},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almost(got, c.want, 1e-12) {
			t.Errorf("P%g = %g, want %g", c.p, got, c.want)
		}
	}
	if got := Percentile([]float64{9}, 73); got != 9 {
		t.Errorf("single-element percentile = %g", got)
	}
	// Out-of-range p clamps.
	if got := Percentile(xs, -5); got != 1 {
		t.Errorf("P(-5) = %g", got)
	}
	if got := Percentile(xs, 150); got != 5 {
		t.Errorf("P(150) = %g", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	_ = Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Percentile mutated input: %v", xs)
	}
}

// TestPercentileBounds: any percentile lies within [min, max].
func TestPercentileBounds(t *testing.T) {
	prop := func(raw []float64, p8 uint8) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		p := float64(p8) / 255 * 100
		v := Percentile(raw, p)
		return v >= Min(raw)-1e-9 && v <= Max(raw)+1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Median != 3 || s.Min != 1 || s.Max != 5 {
		t.Errorf("Summary = %+v", s)
	}
	if z := Summarize(nil); z.N != 0 {
		t.Errorf("Summarize(nil) = %+v", z)
	}
}

func TestFitLinearExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = -2*x + 7
	}
	fit, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(fit.Slope, -2, 1e-12) || !almost(fit.Intercept, 7, 1e-12) {
		t.Errorf("fit = %+v", fit)
	}
	if !almost(fit.R2, 1, 1e-12) {
		t.Errorf("R2 = %g", fit.R2)
	}
}

func TestFitLinearNoisy(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6}
	ys := []float64{2.1, 3.9, 6.2, 7.8, 10.1, 11.9}
	fit, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(fit.Slope, 2, 0.1) {
		t.Errorf("slope = %g", fit.Slope)
	}
	if fit.R2 < 0.99 {
		t.Errorf("R2 = %g", fit.R2)
	}
}

func TestFitLinearErrors(t *testing.T) {
	if _, err := FitLinear([]float64{1}, []float64{2}); err == nil {
		t.Error("single point fit did not error")
	}
	if _, err := FitLinear([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Error("vertical fit did not error")
	}
	if _, err := FitLinear([]float64{1, 2}, []float64{2}); err == nil {
		t.Error("length mismatch did not error")
	}
}

// TestFitLinearRecovers: OLS recovers an exact line for arbitrary
// slope/intercept.
func TestFitLinearRecovers(t *testing.T) {
	prop := func(s8, i8 int8) bool {
		slope := float64(s8) / 16
		icept := float64(i8) / 4
		xs := []float64{-2, -1, 0, 1, 2, 5}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = slope*x + icept
		}
		fit, err := FitLinear(xs, ys)
		if err != nil {
			return false
		}
		return almost(fit.Slope, slope, 1e-9) && almost(fit.Intercept, icept, 1e-9)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram()
	if _, ok := h.MinValue(); ok {
		t.Error("empty histogram reported a min")
	}
	for _, v := range []int{5, 5, 6, 5, 4} {
		h.Add(v)
	}
	if h.total != 5 || h.Count(5) != 3 || h.Count(9) != 0 {
		t.Errorf("counts wrong: total=%d c5=%d", h.total, h.Count(5))
	}
	if got := h.Support(); len(got) != 3 || got[0] != 4 || got[2] != 6 {
		t.Errorf("Support = %v", got)
	}
	if lo, _ := h.MinValue(); lo != 4 {
		t.Errorf("MinValue = %d", lo)
	}
	if hi, _ := h.MaxValue(); hi != 6 {
		t.Errorf("MaxValue = %d", hi)
	}
	if h.Spread() != 2 {
		t.Errorf("Spread = %d", h.Spread())
	}
	if !almost(h.Frac(5), 0.6, 1e-12) {
		t.Errorf("Frac(5) = %g", h.Frac(5))
	}
	if !almost(h.WeightedMean(), 5.0, 1e-12) {
		t.Errorf("WeightedMean = %g", h.WeightedMean())
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Spread() != 0 || h.Frac(1) != 0 || h.WeightedMean() != 0 {
		t.Error("empty histogram aggregates non-zero")
	}
}

func TestHistogramExtremes(t *testing.T) {
	cases := []struct {
		name   string
		values []int
		lo, hi int
		ok     bool
	}{
		{"empty", nil, 0, 0, false},
		{"one value", []int{7}, 7, 7, true},
		{"repeated value", []int{3, 3, 3}, 3, 3, true},
		{"negative values", []int{-2, -9, -4, -9}, -9, -2, true},
		{"straddles zero", []int{4, -1, 0, 12, -1}, -1, 12, true},
		{"unsorted", []int{10, 2, 8, 2, 11, 5}, 2, 11, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := NewHistogram()
			for _, v := range tc.values {
				h.Add(v)
			}
			lo, okLo := h.MinValue()
			hi, okHi := h.MaxValue()
			if lo != tc.lo || hi != tc.hi || okLo != tc.ok || okHi != tc.ok {
				t.Fatalf("MinValue, MaxValue = (%d, %v), (%d, %v); want (%d, %v), (%d, %v)",
					lo, okLo, hi, okHi, tc.lo, tc.ok, tc.hi, tc.ok)
			}
			// The extremes are the ends of the sorted support.
			if sup := h.Support(); len(sup) > 0 && (sup[0] != lo || sup[len(sup)-1] != hi) {
				t.Errorf("support %v disagrees with extremes %d..%d", sup, lo, hi)
			}
			if got := h.Spread(); got != tc.hi-tc.lo {
				t.Errorf("Spread = %d, want %d", got, tc.hi-tc.lo)
			}
			if n := testing.AllocsPerRun(10, func() { h.MinValue(); h.MaxValue() }); n != 0 {
				t.Errorf("MinValue+MaxValue allocate %v times", n)
			}
		})
	}
}

func TestApproxEqual(t *testing.T) {
	// Runtime arithmetic so the compiler cannot constant-fold the sum
	// exactly; tenth+fifth carries the classic last-ulp residue vs 0.3.
	tenth, fifth := 0.1, 0.2
	sum := tenth + fifth
	cases := []struct {
		a, b, tol float64
		want      bool
	}{
		{1.0, 1.0, 1e-9, true},                   // identical
		{sum, 0.3, 1e-9, true},                   // classic rounding residue
		{sum, 0.3, 1e-18, false},                 // residue exceeds a tiny tol
		{1e9, 1e9 + 1, 1e-6, true},               // relative for large magnitudes
		{1e9, 1.001e9, 1e-6, false},              // relative miss
		{0, 1e-12, 1e-9, true},                   // absolute near zero
		{0, 1e-6, 1e-9, false},                   // absolute miss near zero
		{math.Inf(1), math.Inf(1), 1e-9, true},   // fast path covers infinities
		{math.Inf(1), math.Inf(-1), 1e-9, false}, // opposite infinities differ
		{math.NaN(), math.NaN(), 1e-9, false},    // NaN equals nothing
	}
	for _, c := range cases {
		if got := ApproxEqual(c.a, c.b, c.tol); got != c.want {
			t.Errorf("ApproxEqual(%g, %g, %g) = %v, want %v", c.a, c.b, c.tol, got, c.want)
		}
	}
}
