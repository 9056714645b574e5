package silicon

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/units"
)

// The per-value implementations the one-walk kernel replaced, kept as
// its references: each walks the step table on its own, and the margin
// register's formula reads the guard and the requirement separately.

func refGuardPs(c *CoreProfile, reduction int) (units.Picosecond, error) {
	if reduction < 0 {
		return 0, fmt.Errorf("silicon: negative CPM delay reduction %d on %s", reduction, c.Label)
	}
	if reduction > c.PresetTaps {
		return 0, fmt.Errorf("silicon: CPM delay reduction %d exceeds preset %d on %s",
			reduction, c.PresetTaps, c.Label)
	}
	return c.SynthPs + c.InsertedDelayPs(c.PresetTaps-reduction) + ThetaPs, nil
}

func refRequiredGuardPs(c *CoreProfile, score float64) units.Picosecond {
	switch {
	case score <= 0:
		return c.IdleGuardPs
	case score <= UBenchScore:
		frac := score / UBenchScore
		return c.IdleGuardPs + units.Picosecond(frac*float64(c.UBenchGuardPs-c.IdleGuardPs))
	default:
		lim := c.ubLimit - refRollbackAt(c, normalizeAppScore(score))
		lim = min(max(lim, 0), c.PresetTaps)
		g, err := refGuardPs(c, lim)
		if err != nil {
			panic(err)
		}
		return units.Picosecond(float64(g) / (1 + limitHeadroomSigmas*c.SigmaFrac))
	}
}

// refRollbackAt is RollbackAt as the rounding of math.Pow, without the
// bounds that decide it.
func refRollbackAt(c *CoreProfile, score float64) int {
	if score <= 0 || c.Vulnerability == 0 {
		return 0
	}
	if score > 1 {
		score = 1
	}
	rb := int(math.Round(float64(c.Vulnerability) * math.Pow(score, c.Gamma)))
	if rb > c.Vulnerability {
		rb = c.Vulnerability
	}
	return rb
}

func refSurvivesTrial(c *CoreProfile, reduction int, score float64, src *rng.Source) (bool, error) {
	g, err := refGuardPs(c, reduction)
	if err != nil {
		return false, err
	}
	req := float64(refRequiredGuardPs(c, score))
	tail := math.Abs(src.Norm(0, c.SigmaFrac))
	return float64(g) >= req*(1+tail), nil
}

func refFailureProb(c *CoreProfile, reduction int, score float64) (float64, error) {
	g, err := refGuardPs(c, reduction)
	if err != nil {
		return 0, err
	}
	req := float64(refRequiredGuardPs(c, score))
	if req <= 0 {
		return 0, nil
	}
	t := (float64(g)/req - 1) / c.SigmaFrac
	if t < 0 {
		return 1, nil
	}
	return math.Erfc(t / math.Sqrt2), nil
}

// refMarginSigmas is the FSP margin register's formula before rounding
// to milli-sigmas.
func refMarginSigmas(c *CoreProfile, reduction int) (float64, error) {
	g, err := refGuardPs(c, reduction)
	if err != nil {
		return 0, err
	}
	req := float64(refRequiredGuardPs(c, 1))
	if req <= 0 || c.SigmaFrac <= 0 {
		return 0, nil
	}
	return (float64(g)/req - 1) / c.SigmaFrac, nil
}

// kernelScores are the stress scores the kernel test sweeps: below,
// at and just past each branch boundary, the worst workload, past it,
// and the non-finite values.
var kernelScores = []float64{
	-1, 0, 1e-9, UBenchScore, math.Nextafter(UBenchScore, 2), 0.5, 1, 1.5,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// kernelDraws is how many seeds checkKernel draws SurvivesTrial from at
// each (reduction, score).
const kernelDraws = 64

// TestGuardKernelMatchesReference holds the one-walk kernel bit for bit
// to the per-value references: GuardPs, RequiredGuardPs, SurvivesTrial
// (result and the random source's state after each of kernelDraws
// draws), FailureProb
// and MarginSigmas, with the same errors, at every reduction from −1 to
// PresetTaps+1 and every kernelScores score. The servers are the
// reference server, 50 generated ones, the reference server with every
// third step negated (so the walk is not monotone) and the reference
// server with every preset cut to one tap; each core is checked as
// built and again aged in place and refreshed. The walks must include
// a guard and an application requirement on the same tap, and one of
// the two on tap 0.
func TestGuardKernelMatchesReference(t *testing.T) {
	servers := []*ServerProfile{Reference()}
	for seed := uint64(1); seed <= 50; seed++ {
		s, err := Generate(seed, GenerateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, s)
	}
	bumpy, shallow := Reference(), Reference()
	for _, c := range bumpy.AllCores() {
		for k := 2; k < len(c.StepPs); k += 3 {
			c.StepPs[k] = -c.StepPs[k]
		}
		c.Refresh()
	}
	for _, c := range shallow.AllCores() {
		c.PresetTaps = 1
		c.Refresh()
	}
	servers = append(servers, bumpy, shallow)
	var cov kernelCover
	age := rng.New(7)
	for si, s := range servers {
		for _, c := range s.AllCores() {
			checkKernel(t, fmt.Sprintf("server %d %s", si, c.Label), c, &cov)
			// Age in place the way the lifetime overlay does: slower
			// CPM steps, a heavier envelope, a wider tail.
			for k := 1; k < len(c.StepPs); k++ {
				c.StepPs[k] *= units.Picosecond(1 + 0.1*age.Float64())
			}
			c.SynthPs *= units.Picosecond(1 + 0.02*age.Float64())
			grow := 1 + 0.08*age.Float64()
			c.IdleGuardPs *= units.Picosecond(grow)
			c.UBenchGuardPs *= units.Picosecond(grow)
			c.SigmaFrac *= 1 + 0.2*age.Float64()
			c.Refresh()
			checkKernel(t, fmt.Sprintf("server %d %s aged", si, c.Label), c, &cov)
		}
	}
	if cov.sameTap == 0 || cov.tapZero == 0 {
		t.Fatalf("walks with the guard and an application requirement on one tap: %d; with either on tap 0: %d; want both > 0",
			cov.sameTap, cov.tapZero)
	}
}

// kernelCover counts the walks checkKernel checked in which a guard and
// an application requirement shared a tap, and in which one of the two
// sat on tap 0: the walks whose two sums are equal, or one is empty.
type kernelCover struct{ sameTap, tapZero int }

func checkKernel(t *testing.T, name string, c *CoreProfile, cov *kernelCover) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	sameErr := func(a, b error) bool {
		return (a == nil) == (b == nil) && (a == nil || a.Error() == b.Error())
	}
	for _, score := range kernelScores {
		if got, want := c.RequiredGuardPs(score), refRequiredGuardPs(c, score); !same(float64(got), float64(want)) {
			t.Fatalf("%s: RequiredGuardPs(%v) = %v, reference %v", name, score, got, want)
		}
	}
	for r := -1; r <= c.PresetTaps+1; r++ {
		g, err := c.GuardPs(r)
		wg, werr := refGuardPs(c, r)
		if !same(float64(g), float64(wg)) || !sameErr(err, werr) {
			t.Fatalf("%s: GuardPs(%d) = %v, %v; reference %v, %v", name, r, g, err, wg, werr)
		}
		m, err := c.MarginSigmas(r)
		wm, werr := refMarginSigmas(c, r)
		if !same(m, wm) || !sameErr(err, werr) {
			t.Fatalf("%s: MarginSigmas(%d) = %v, %v; reference %v, %v", name, r, m, err, wm, werr)
		}
		for si, score := range kernelScores {
			if r >= 0 && r <= c.PresetTaps && score > UBenchScore && score <= 1 {
				lim := c.ubLimit - refRollbackAt(c, normalizeAppScore(score))
				gTap, reqTap := c.PresetTaps-r, c.PresetTaps-min(max(lim, 0), c.PresetTaps)
				if gTap == reqTap {
					cov.sameTap++
				}
				if min(gTap, reqTap) == 0 {
					cov.tapZero++
				}
			}
			p, err := c.FailureProb(r, score)
			wp, werr := refFailureProb(c, r, score)
			if !same(p, wp) || !sameErr(err, werr) {
				t.Fatalf("%s: FailureProb(%d, %v) = %v, %v; reference %v, %v", name, r, score, p, err, wp, werr)
			}
			for d := range uint64(kernelDraws) {
				seed := uint64((r+1)*len(kernelScores)+si)*kernelDraws + d + 1
				src, wsrc := rng.New(seed), rng.New(seed)
				ok, err := c.SurvivesTrial(r, score, src)
				wok, werr := refSurvivesTrial(c, r, score, wsrc)
				if ok != wok || !sameErr(err, werr) {
					t.Fatalf("%s: SurvivesTrial(%d, %v) seed %d = %v, %v; reference %v, %v", name, r, score, seed, ok, err, wok, werr)
				}
				if a, b := src.Uint64(), wsrc.Uint64(); a != b {
					t.Fatalf("%s: SurvivesTrial(%d, %v) seed %d left the source at %#x, the reference at %#x", name, r, score, seed, a, b)
				}
			}
		}
	}
}
