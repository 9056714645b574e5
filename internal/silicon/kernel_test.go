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
	return c.SynthPs + c.InsertedDelayPs(c.PresetTaps-reduction) + c.params.ThetaPs(), nil
}

func refRequiredGuardPs(c *CoreProfile, score float64) units.Picosecond {
	switch {
	case score <= 0:
		return c.IdleGuardPs
	case score <= UBenchScore:
		frac := score / UBenchScore
		return c.IdleGuardPs + units.Picosecond(frac*float64(c.UBenchGuardPs-c.IdleGuardPs))
	default:
		lim := c.ubLimit - c.RollbackAt(normalizeAppScore(score))
		lim = min(max(lim, 0), c.PresetTaps)
		g, err := refGuardPs(c, lim)
		if err != nil {
			panic(err)
		}
		return units.Picosecond(float64(g) / (1 + limitHeadroomSigmas*c.SigmaFrac))
	}
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

// TestGuardKernelMatchesReference holds the one-walk kernel bit for bit
// to the per-value references: GuardPs, RequiredGuardPs, SurvivesTrial
// (result and the random source's state after the draw), FailureProb
// and MarginSigmas, with the same errors, on the reference server and
// 50 generated ones, each core also aged in place and refreshed, at
// every reduction from −1 to PresetTaps+1 and every kernelScores score.
func TestGuardKernelMatchesReference(t *testing.T) {
	servers := []*ServerProfile{Reference()}
	for seed := uint64(1); seed <= 50; seed++ {
		s, err := Generate(seed, GenerateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, s)
	}
	age := rng.New(7)
	for si, s := range servers {
		for _, c := range s.AllCores() {
			checkKernel(t, fmt.Sprintf("server %d %s", si, c.Label), c)
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
			checkKernel(t, fmt.Sprintf("server %d %s aged", si, c.Label), c)
		}
	}
}

func checkKernel(t *testing.T, name string, c *CoreProfile) {
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
			p, err := c.FailureProb(r, score)
			wp, werr := refFailureProb(c, r, score)
			if !same(p, wp) || !sameErr(err, werr) {
				t.Fatalf("%s: FailureProb(%d, %v) = %v, %v; reference %v, %v", name, r, score, p, err, wp, werr)
			}
			seed := uint64((r+1)*len(kernelScores) + si + 1)
			src, wsrc := rng.New(seed), rng.New(seed)
			ok, err := c.SurvivesTrial(r, score, src)
			wok, werr := refSurvivesTrial(c, r, score, wsrc)
			if ok != wok || !sameErr(err, werr) {
				t.Fatalf("%s: SurvivesTrial(%d, %v) = %v, %v; reference %v, %v", name, r, score, ok, err, wok, werr)
			}
			if a, b := src.Uint64(), wsrc.Uint64(); a != b {
				t.Fatalf("%s: SurvivesTrial(%d, %v) left the source at %#x, the reference at %#x", name, r, score, a, b)
			}
		}
	}
}
