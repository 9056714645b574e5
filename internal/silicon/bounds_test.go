package silicon

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/workload"
)

// refSurvives is the trial outcome as SurvivesTrial evaluated it before
// the bounds: the Box–Muller deviate, the half-normal tail, the compare.
func refSurvives(g, req, sigma, u1, u2 float64) bool {
	return g >= req*(1+math.Abs(sigma*rng.BoxMuller(u1, u2)))
}

// TestSurvivesMatchesNormSweep holds the bounded trial decision to the
// draw it replaced, g ≥ req·(1 + |src.Norm(0, σ)|), over 2^20 draws:
// four σ, and a guard headroom h = g/req − 1 swept over h/σ from −1 to
// 10, the span in which runs are close calls. After each draw the two
// sources must be in the same state.
func TestSurvivesMatchesNormSweep(t *testing.T) {
	const (
		perSigma = 1 << 18
		req      = 1000.0
	)
	for si, sigma := range []float64{5e-4, 0.005, 0.02, 0.1} {
		src, ref := rng.New(uint64(si)+1), rng.New(uint64(si)+1)
		for i := range perSigma {
			x := -1 + 11*float64(i)/perSigma
			g := req * (1 + sigma*x)
			u1, u2 := src.NormUniforms()
			got := survives(g, req, sigma, u1, u2)
			if want := g >= req*(1+math.Abs(ref.Norm(0, sigma))); got != want {
				t.Fatalf("σ %v, h/σ %v, u1 %v, u2 %v: survives %v, Norm draw %v", sigma, x, u1, u2, got, want)
			}
			if a, b := *src, *ref; a.Uint64() != b.Uint64() {
				t.Fatalf("σ %v draw %d: NormUniforms left the source where Norm did not", sigma, i)
			}
		}
	}
}

// refCosBounds is cosBounds as two branches, before the folds became
// selects, kept as its reference.
func refCosBounds(u float64) (lo, hi float64) {
	if u > 0.5 {
		u = 1 - u
	}
	if u > 0.25 {
		u = 0.5 - u
	}
	i := min(int(u*(4*cosTableN)), cosTableN-1)
	return cosTable[i+1], cosTable[i]
}

// TestCosBoundsMatchesBranches holds the select fold to the two-branch
// fold bit for bit: at every bucket edge i/512, ¼, ½ and ¾ among them,
// each ±4 ulps; at 0, −0, 2^-53 and 1 − 2^-53; at the u2 of 10^6
// NormUniforms draws; and at 10^6 random bit patterns in [0, 1), which
// reach subnormals and the low binades a uniform draw rarely does.
func TestCosBoundsMatchesBranches(t *testing.T) {
	bits := math.Float64bits
	check := func(u float64) {
		t.Helper()
		lo, hi := cosBounds(u)
		wlo, whi := refCosBounds(u)
		if bits(lo) != bits(wlo) || bits(hi) != bits(whi) {
			t.Fatalf("u %v (%#x): cosBounds (%v, %v), branches (%v, %v)", u, bits(u), lo, hi, wlo, whi)
		}
	}
	around := func(u float64) {
		down, up := u, u
		check(u)
		for range 4 {
			down, up = math.Nextafter(down, -1), math.Nextafter(up, 2)
			if down >= 0 {
				check(down)
			}
			if up < 1 {
				check(up)
			}
		}
	}
	// The edges include ¼, ½ and ¾, where the folds switch.
	for i := range 4 * cosTableN {
		around(float64(i) / (4 * cosTableN))
	}
	for _, u := range []float64{0, math.Copysign(0, -1), 0x1p-53, 1 - 0x1p-53} {
		check(u)
	}
	const draws = 1_000_000
	src := rng.New(41)
	for range draws {
		_, u2 := src.NormUniforms()
		check(u2)
	}
	one := math.Float64bits(1)
	for range draws {
		check(math.Float64frombits(src.Uint64() % one))
	}
}

// FuzzTrialDecision holds the bounded trial decision to the evaluated
// expression on arbitrary inputs. h is a guard headroom g/req − 1; it
// is tried as given and, scaled by σ, around the draw's own threshold
// σ·|z|, where the outcome is a close call. u1 and u2 are raw bits, so
// uniforms outside NormUniforms' ranges, NaN and infinities show up.
func FuzzTrialDecision(f *testing.F) {
	const (
		req   = 1000.0
		sigma = 0.01
		u1    = 0.3
		u2    = 0.1
	)
	bits := math.Float64bits
	add := func(h, sigma, req, u1, u2 float64) { f.Add(h, sigma, req, bits(u1), bits(u2)) }
	for _, h := range []float64{0, 1e-15, -1e-15, 0.05, -0.05} {
		add(h, sigma, req, u1, u2)
	}
	for _, bad := range []float64{0, math.NaN(), math.Inf(1), math.Inf(-1)} {
		add(bad, sigma, req, u1, u2)
		add(0, bad, req, u1, u2)
		add(0, sigma, bad, u1, u2)
		add(0, sigma, req, bad, u2)
		add(0, sigma, req, u1, bad)
	}
	for _, v := range []float64{0x1p-53, 1 - 0x1p-53} {
		add(0, sigma, req, v, u2)
		add(1e-15, sigma, req, v, u2)
	}
	for _, v := range []float64{0, 0.25, 0.5, 0.75} {
		for _, w := range []float64{math.Nextafter(v, -1), v, math.Nextafter(v, 2)} {
			add(0, sigma, req, u1, w)
			add(-1e-15, sigma, req, u1, w)
		}
	}
	f.Fuzz(func(t *testing.T, h, sigma, req float64, u1Bits, u2Bits uint64) {
		u1, u2 := math.Float64frombits(u1Bits), math.Float64frombits(u2Bits)
		tail := math.Abs(sigma * rng.BoxMuller(u1, u2))
		for _, g := range []float64{req * (1 + h), req * (1 + tail + sigma*h)} {
			if got, want := survives(g, req, sigma, u1, u2), refSurvives(g, req, sigma, u1, u2); got != want {
				t.Fatalf("g %v, req %v, σ %v, u1 %v, u2 %v: survives %v, evaluated %v", g, req, sigma, u1, u2, got, want)
			}
		}
	})
}

// TestRollbackAtMatchesPow holds RollbackAt to round(V·s^γ) evaluated
// with math.Pow (refRollbackAt) for V from 0 to 10 (past the tabulated
// thresholds), the reference server's γ range, degenerate γ, and every
// γ generated for seeds 1–50. The scores sit 1 to 4 ulp either side of
// each rounding threshold ((k+½)/V)^(1/γ), where the bounds must hand
// over to Pow, plus every workload's raw and normalized stress score.
func TestRollbackAtMatchesPow(t *testing.T) {
	gammas := []float64{0.35, 1, 1.7, 2.4, 0, -1, math.NaN(), math.Inf(1)}
	for seed := uint64(1); seed <= 50; seed++ {
		s, err := Generate(seed, GenerateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range s.AllCores() {
			gammas = append(gammas, c.Gamma)
		}
	}
	var fixed []float64
	for _, w := range workload.All() {
		fixed = append(fixed, w.StressScore, normalizeAppScore(w.StressScore))
	}
	fixed = append(fixed, 0, 1e-300, 0x1p-1074, 0.5, math.Nextafter(1, 0), 1, 2, math.NaN(), math.Inf(1))
	for v := 0; v <= 10; v++ {
		for _, gamma := range gammas {
			c := &CoreProfile{Vulnerability: v, Gamma: gamma}
			scores := append([]float64(nil), fixed...)
			for k := 0; k < v && gamma > 0 && !math.IsInf(gamma, 1); k++ {
				at := math.Pow((float64(k)+0.5)/float64(v), 1/gamma)
				lo, hi := at, at
				scores = append(scores, at)
				for range 4 {
					lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, 2)
					scores = append(scores, lo, hi)
				}
			}
			for _, s := range scores {
				if got, want := c.RollbackAt(s), refRollbackAt(c, s); got != want {
					t.Fatalf("V %d, γ %v, score %v: RollbackAt %d, round(V·s^γ) %d", v, gamma, s, got, want)
				}
			}
		}
	}
}
