package silicon_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/chip"
	"repro/internal/lifetime"
	"repro/internal/rng"
	"repro/internal/silicon"
	"repro/internal/units"
)

// limitChecker compares the one-pass limitForGuard with its O(taps²)
// reference and counts the requirements that sit exactly on a guard.
type limitChecker struct {
	t    *testing.T
	src  *rng.Source
	ties int
}

// check compares the two searches at req on core c.
func (lc *limitChecker) check(stage string, c *silicon.CoreProfile, req units.Picosecond) {
	lc.t.Helper()
	if got, want := c.LimitForGuard(req), c.LimitForGuardReference(req); got != want {
		lc.t.Fatalf("%s: %s limitForGuard(%v) = %d, O(taps²) reference %d", stage, c.Label, req, got, want)
	}
}

// server checks every core of s: at each reduction's boundary
// requirement (the one requiredGuardForLimit inverts to), at the
// requirements whose headroom-scaled need lands on or next to that
// reduction's guard, and at random requirements spanning every
// outcome from 0 to PresetTaps.
func (lc *limitChecker) server(stage string, s *silicon.ServerProfile, random int) {
	lc.t.Helper()
	for _, c := range s.AllCores() {
		h := c.HeadroomFactor()
		for r := 0; r <= c.MaxReduction(); r++ {
			lc.check(stage, c, c.RequiredGuardForLimit(r))
			g, err := c.GuardPs(r)
			if err != nil {
				lc.t.Fatal(err)
			}
			req := (float64(g) + 1e-9) / h
			lo, hi := req, req
			for k := 0; k < 4; k++ {
				lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, math.Inf(1))
			}
			for v := lo; v <= hi; v = math.Nextafter(v, math.Inf(1)) {
				if v*h-1e-9 == float64(g) {
					lc.ties++
				}
				lc.check(stage, c, units.Picosecond(v))
			}
		}
		gMin, err := c.GuardPs(c.MaxReduction())
		if err != nil {
			lc.t.Fatal(err)
		}
		gMax, err := c.GuardPs(0)
		if err != nil {
			lc.t.Fatal(err)
		}
		lo, hi := 0.9*float64(gMin)/h, 1.1*float64(gMax)/h
		for k := 0; k < random; k++ {
			lc.check(stage, c, units.Picosecond(lo+lc.src.Float64()*(hi-lo)))
		}
	}
}

// TestLimitForGuardMatchesReference checks the one-pass limit search
// against the O(taps²) search it replaced, on the reference server, on
// 20 generated servers, and on a server whose step tables have
// negative entries, so the guard is not monotone in the tap index.
func TestLimitForGuardMatchesReference(t *testing.T) {
	lc := &limitChecker{t: t, src: rng.New(16)}
	lc.server("reference", silicon.Reference(), 200)
	for seed := uint64(1); seed <= 20; seed++ {
		s, err := silicon.Generate(seed, silicon.GenerateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		lc.server(fmt.Sprintf("generated %d", seed), s, 200)
	}
	bumpy := silicon.Reference()
	for _, c := range bumpy.AllCores() {
		for k := 2; k < len(c.StepPs); k += 3 {
			c.StepPs[k] = -c.StepPs[k]
		}
		c.Refresh()
	}
	lc.server("non-monotone", bumpy, 200)
	if lc.ties == 0 {
		t.Fatal("no requirement landed exactly on a guard: the >= boundary went unchecked")
	}
}

// TestLimitForGuardMatchesReferenceWhenAged checks the two searches
// after each of 50 epochs of the lifetime drift overlay, which rewrites
// every step of the inserted-delay chain with its own aging jitter.
func TestLimitForGuardMatchesReferenceWhenAged(t *testing.T) {
	m, err := chip.New(silicon.Reference().Clone(), chip.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const epochs = 50
	ov := lifetime.NewOverlay(m, lifetime.Params{}, 5, rng.New(3).Split("lifetime/drift"))
	active := make([]bool, len(m.AllCores()))
	for i := range active {
		active[i] = i%2 == 0
	}
	lc := &limitChecker{t: t, src: rng.New(17)}
	for e := 1; e <= epochs; e++ {
		ov.Advance(5*lifetime.HoursPerYear/epochs, active)
		lc.server(fmt.Sprintf("epoch %d", e), m.Profile(), 20)
	}
}

// TestInsertedTableMatchesWalkWhenAged holds every core's
// inserted-delay table, guards and limits to step-table walks, bit for
// bit, after each epoch of a 3-year lifetime drift overlay run: each
// epoch rewrites every step in place, and Refresh must rebuild the
// table.
func TestInsertedTableMatchesWalkWhenAged(t *testing.T) {
	m, err := chip.New(silicon.Reference().Clone(), chip.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const years = 3
	ov := lifetime.NewOverlay(m, lifetime.Params{}, years, rng.New(5).Split("lifetime/drift"))
	active := make([]bool, len(m.AllCores()))
	for i := range active {
		active[i] = i%3 != 0
	}
	const epochHours = 6
	for e := 1; e <= years*lifetime.HoursPerYear/epochHours; e++ {
		ov.Advance(epochHours, active)
		for _, c := range m.Profile().AllCores() {
			if err := c.CheckTable(); err != nil {
				t.Fatalf("epoch %d: %v", e, err)
			}
		}
	}
}
