package silicon

import (
	"math"

	"repro/internal/rng"
)

// Exact decisions from bounds.
//
// A trial's outcome, g ≥ req·(1 + |σ·z|) with z the Box–Muller deviate
// √(−2 ln u1)·cos 2πu2, and an application's rollback, round(V·s^γ),
// are each decided far more often than they are close. The kernels
// below bound the transcendental quantities from small tables, decide
// from the bounds when they clear the comparison by a margin, and
// otherwise evaluate the original expression unchanged. The margins
// (1e-9 relative) exceed every rounding error on either side by more
// than five orders of magnitude, so a decision from the bounds always
// equals the evaluated expression: outcomes are bit-identical, only the
// cost changes. MODEL.md §3 gives the error budget.

// lnTableBits is how many top mantissa bits select an lnTable bucket.
const lnTableBits = 8

// lnTableN is the number of lnTable buckets over a binade.
const lnTableN = 1 << lnTableBits

// lnTable[j] is ln(1 + j/lnTableN): the log of a binade's bucket edges.
var lnTable = func() (t [lnTableN + 1]float64) {
	for j := range t {
		t[j] = math.Log1p(float64(j) / lnTableN)
	}
	return t
}()

// cosTableN is the number of cosTable buckets over a quarter turn.
const cosTableN = 128

// cosTable[i] is cos(2π·i/(4·cosTableN)), falling from 1 to 0 over a
// quarter turn. The last entry is exactly 0, the true cos(π/2), which
// the float Cos of the rounded angle is not.
var cosTable = func() (t [cosTableN + 1]float64) {
	for i := range cosTableN {
		t[i] = math.Cos(2 * math.Pi * float64(i) / (4 * cosTableN))
	}
	return t
}()

// rollbackTableV is the largest vulnerability whose rollback thresholds
// are tabulated; RollbackAt calls math.Pow for larger ones.
const rollbackTableV = 8

// rollbackThresholds holds ln((k+½)/V) for V in [1, rollbackTableV]
// and k in [0, V), V's run starting at V(V−1)/2 in ascending k: the
// values of γ·ln s at which round(V·s^γ) steps from k to k+1.
var rollbackThresholds = func() (t [rollbackTableV * (rollbackTableV + 1) / 2]float64) {
	for v := 1; v <= rollbackTableV; v++ {
		for k := range v {
			t[v*(v-1)/2+k] = math.Log((float64(k) + 0.5) / float64(v))
		}
	}
	return t
}()

const (
	// trialMarginRel and trialMarginAbs are the margin, in units of
	// g/req, by which a trial bound must clear the comparison to decide
	// it. Rounding in the evaluated expression and in the bounds is
	// below 1e-14 relative and 1e-13 absolute.
	trialMarginRel = 1e-9
	trialMarginAbs = 1e-12

	// trialMaxSigma is the largest σ a trial bound decides for: the
	// absolute error of the evaluated cos near its zero grows with σ,
	// and trialMarginAbs covers it up to here. Silicon σ are near 0.01.
	trialMaxSigma = 1

	// lnSlack widens the bounds on −2·ln u1 past the rounding of the
	// sums that form them (below 3e-14 for u1 ≥ 2^-53), so they hold
	// for the exact logarithm before the square root.
	lnSlack = 1e-12

	// rollbackMargin is how far, in units of ln s^γ (relative units
	// of s^γ), a bound on γ·ln s must clear a threshold to decide it.
	// Pow's relative error is below 1e-13 for γ up to rollbackMaxGamma.
	rollbackMargin = 1e-9

	// rollbackMaxGamma is the largest γ a rollback bound decides for:
	// Pow's repeated squaring grows its rounding error with γ.
	rollbackMaxGamma = 64

	// minNormal is the smallest positive normal float64. lnBounds reads
	// a normal's exponent, and a subnormal requirement would make the
	// evaluated product's rounding error unbounded in relative terms.
	minNormal = 0x1p-1022
)

// lnBounds returns lo ≤ ln x ≤ hi for a positive normal x, from its
// exponent and top mantissa bits: x = 2^e·(1+f) with f in
// [j/N, (j+1)/N), so ln x lies between e·ln2 + ln(1+j/N) and
// e·ln2 + ln(1+(j+1)/N). Reading the bits is exact, so the bucket is.
//
//atm:hotpath
func lnBounds(x float64) (lo, hi float64) {
	b := math.Float64bits(x)
	base := float64(int(b>>52)-1023) * math.Ln2
	j := b >> (52 - lnTableBits) & (lnTableN - 1)
	return base + lnTable[j], base + lnTable[j+1]
}

// cosBounds returns lo ≤ |cos 2πu| ≤ hi for u in [0, 1). The angle
// folds into [0, ¼] turn through |cos 2πu| = |cos 2π(1−u)| =
// |cos 2π(½−u)|; each subtraction is exact (Sterbenz) and so is the
// scaling by 4·cosTableN, so the bucket index is exact. Over the
// quarter turn the cosine falls, so bucket i lies between table
// entries i+1 and i; the last bucket, which also holds u = ¼ itself,
// has lower bound 0.
//
// u is uniform, so a jump on either fold would be a coin flip for the
// branch predictor. Both subtractions are computed up front and their
// bits selected with integer assignments, which amd64 compiles to
// conditional moves: 1−u when u > ½, then |½−u| when it is below ¼,
// that is when u lies in (¼, ¾). Where |½−u| is selected it is the
// exact ½−v of the second fold (for u in (½, ¾), ½−(1−u) = u−½ exactly),
// and the bits of non-negative floats order as the floats do, so the
// folded angle, the bucket and both bounds are those of the two
// branches. The function stays cheap enough to inline into survives.
//
//atm:hotpath
func cosBounds(u float64) (lo, hi float64) {
	b, f, h := math.Float64bits(u), math.Float64bits(1-u), math.Float64bits(0.5-u)&^(1<<63)
	if u > 0.5 {
		b = f
	}
	if h < quarterTurnBits {
		b = h
	}
	i := min(int(math.Float64frombits(b)*(4*cosTableN)), cosTableN-1)
	return cosTable[i+1], cosTable[i]
}

// quarterTurnBits is math.Float64bits(0.25), the quarter turn cosBounds
// compares a folded angle's bits against.
const quarterTurnBits = 0x3FD0000000000000

// survives is the trial outcome g ≥ req·(1 + |σ·z|) for the Box–Muller
// deviate z of (u1, u2), decided from bounds on |z| when they clear the
// comparison by the margin and evaluated as written otherwise. The
// bounds are used only for σ in (0, trialMaxSigma], a normal req, a
// finite g/req and uniforms in NormUniforms' ranges; every other input,
// NaN included, takes the evaluated expression.
//
//atm:hotpath
func survives(g, req, sigma, u1, u2 float64) bool {
	q := g / req
	if sigma > 0 && sigma <= trialMaxSigma && req >= minNormal && math.Abs(q) <= math.MaxFloat64 &&
		u1 >= 0x1p-53 && u1 < 1 && u2 >= 0 && u2 < 1 {
		m := trialMarginRel*math.Abs(q) + trialMarginAbs
		lnLo, lnHi := lnBounds(u1)
		cosLo, cosHi := cosBounds(u2)
		// −2·ln u1 lies in [−2·lnHi, −2·lnLo].
		if 1+sigma*math.Sqrt(lnSlack-2*lnLo)*cosHi <= q-m {
			return true
		}
		if 1+sigma*math.Sqrt(max(-2*lnHi-lnSlack, 0))*cosLo >= q+m {
			return false
		}
	}
	return g >= req*(1+math.Abs(sigma*rng.BoxMuller(u1, u2)))
}

// boundedRollback returns round(V·s^γ) for v = V, decided from bounds on
// γ·ln s against the tabulated thresholds ln((k+½)/V), and ok = false
// when a bound falls within rollbackMargin of a threshold or the inputs
// are outside the tabulated domain: V in [1, rollbackTableV], a normal
// s below 1 and γ in (0, rollbackMaxGamma]. NaN fails every check.
//
//atm:hotpath
func boundedRollback(v int, s, gamma float64) (rb int, ok bool) {
	if v < 1 || v > rollbackTableV || !(s >= minNormal && s < 1) || !(gamma > 0 && gamma <= rollbackMaxGamma) {
		return 0, false
	}
	lnLo, lnHi := lnBounds(s)
	lo, hi := gamma*lnLo, gamma*lnHi
	for _, t := range rollbackThresholds[v*(v-1)/2 : v*(v+1)/2] {
		switch {
		case lo >= t+rollbackMargin:
			rb++
		case hi <= t-rollbackMargin:
			// The thresholds ascend, so no later one is reached either.
			return rb, true
		default:
			return 0, false
		}
	}
	return rb, true
}
