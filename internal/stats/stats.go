// Package stats provides the small statistical toolkit the experiments
// need: summary statistics, percentiles, histograms and ordinary
// least-squares linear regression (used to fit the paper's Eq. 1 frequency
// predictor and the Fig. 12b performance predictor).
package stats

import (
	"errors"
	"math"
	"slices"
	"sort"
)

// ErrInsufficientData is returned when an estimator needs more samples
// than it was given.
var ErrInsufficientData = errors.New("stats: insufficient data")

// ApproxEqual reports whether a and b agree to within tol, absolutely
// for small magnitudes and relatively for large ones. It is the
// epsilon comparison the floatcmp lint rule points at: exact ==/!= on
// computed floats differs in the last ulp between mathematically equal
// expressions.
//
//lint:ignore deadcode floatcmp's message names it as the comparison to use
func ApproxEqual(a, b, tol float64) bool {
	if a == b { //lint:ignore floatcmp fast path; also makes Inf == Inf true
		return true
	}
	diff := math.Abs(a - b)
	if math.IsInf(diff, 0) || math.IsNaN(diff) {
		return false // unequal infinities, or a NaN operand
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale <= 1 {
		return diff <= tol
	}
	return diff <= tol*scale
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (0 for n < 2).
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the minimum of xs; it panics on an empty slice because a
// missing minimum is always a caller bug in this codebase.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs; it panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using linear
// interpolation between closest ranks. It panics on an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: Percentile of empty slice")
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Summary bundles the descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	P25    float64
	Median float64
	P75    float64
	Max    float64
}

// Summarize computes a Summary of xs. An empty sample yields a zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		StdDev: StdDev(xs),
		Min:    Min(xs),
		P25:    Percentile(xs, 25),
		Median: Median(xs),
		P75:    Percentile(xs, 75),
		Max:    Max(xs),
	}
}

// LinearFit is the result of an ordinary least-squares fit y = Slope·x +
// Intercept, with the coefficient of determination R2.
type LinearFit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// FitLinear performs an OLS fit of ys on xs. It returns
// ErrInsufficientData when fewer than two distinct x values are present.
func FitLinear(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) {
		return LinearFit{}, errors.New("stats: FitLinear length mismatch")
	}
	if len(xs) < 2 {
		return LinearFit{}, ErrInsufficientData
	}
	mx, my := Mean(xs), Mean(ys)
	var sxx, sxy, syy float64
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{}, ErrInsufficientData
	}
	slope := sxy / sxx
	intercept := my - slope*mx
	r2 := 1.0
	if syy > 0 {
		ssRes := 0.0
		for i := range xs {
			r := ys[i] - (slope*xs[i] + intercept)
			ssRes += r * r
		}
		r2 = 1 - ssRes/syy
	}
	return LinearFit{Slope: slope, Intercept: intercept, R2: r2}, nil
}

// Histogram is a counting histogram over integer-valued observations,
// used for the limit distributions of Fig. 7 and Fig. 8. It keeps one
// (value, count) bin per distinct value in ascending value order: a
// limit distribution has a handful of values, so a scan of the bins
// beats hashing, and the extremes are the ends of the slice.
type Histogram struct {
	bins  []bin
	total int
}

// bin is one distinct value and how many times it was observed.
type bin struct{ v, n int }

// initialBins is the backing capacity the first Add allocates: most
// limit distributions cover at most a few adjacent configurations.
const initialBins = 4

// NewHistogram returns an empty histogram. It allocates no bins until
// the first Add.
func NewHistogram() *Histogram { return &Histogram{} }

// Add records one observation of value v.
func (h *Histogram) Add(v int) {
	h.total++
	i := len(h.bins)
	for i > 0 && h.bins[i-1].v > v {
		i--
	}
	if i > 0 && h.bins[i-1].v == v {
		h.bins[i-1].n++
		return
	}
	if h.bins == nil {
		h.bins = make([]bin, 0, initialBins)
	}
	h.bins = slices.Insert(h.bins, i, bin{v: v, n: 1})
}

// Count returns the number of observations equal to v.
func (h *Histogram) Count(v int) int {
	for _, b := range h.bins {
		if b.v == v {
			return b.n
		}
	}
	return 0
}

// Support returns the sorted distinct values observed.
func (h *Histogram) Support() []int {
	vs := make([]int, len(h.bins))
	for i, b := range h.bins {
		vs[i] = b.v
	}
	return vs
}

// MinValue returns the smallest observed value; ok is false when empty.
func (h *Histogram) MinValue() (v int, ok bool) {
	if len(h.bins) == 0 {
		return 0, false
	}
	return h.bins[0].v, true
}

// MaxValue returns the largest observed value; ok is false when empty.
func (h *Histogram) MaxValue() (v int, ok bool) {
	if len(h.bins) == 0 {
		return 0, false
	}
	return h.bins[len(h.bins)-1].v, true
}

// Spread returns max − min of the support (0 when fewer than 2 values).
// The paper's "tight distribution" claim is Spread ≤ 1 (covering no more
// than two adjacent configurations).
func (h *Histogram) Spread() int {
	lo, ok := h.MinValue()
	if !ok {
		return 0
	}
	hi, _ := h.MaxValue()
	return hi - lo
}

// Frac returns the fraction of observations equal to v (0 when empty).
func (h *Histogram) Frac(v int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.Count(v)) / float64(h.total)
}

// WeightedMean returns the mean of the observed integer values. The sum
// runs in ascending value order; every product and partial sum of a
// limit distribution is an exact small integer, so the order does not
// change the result.
func (h *Histogram) WeightedMean() float64 {
	if h.total == 0 {
		return 0
	}
	sum := 0.0
	for _, b := range h.bins {
		sum += float64(b.v) * float64(b.n)
	}
	return sum / float64(h.total)
}
