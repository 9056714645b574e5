package pdn

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func TestDefaultParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
}

func TestValidateCatchesBadness(t *testing.T) {
	bad := []func(*Params){
		func(p *Params) { p.VNom = 0 },
		func(p *Params) { p.LoadlineOhms = 0 },
		func(p *Params) { p.ResonantHz = -1 },
		func(p *Params) { p.DampingZeta = 0 },
		func(p *Params) { p.DampingZeta = 1 },
		func(p *Params) { p.PeakImpedanceOhms = 0 },
		func(p *Params) { p.LoopResponseNs = 0 },
	}
	for i, mutate := range bad {
		p := DefaultParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d not caught", i)
		}
	}
}

// TestValidateRejectsNonFinite sets each field, in turn, to NaN, +Inf
// and −Inf: each must be rejected with an error naming the field.
func TestValidateRejectsNonFinite(t *testing.T) {
	fields := []struct {
		name string
		set  func(*Params, float64)
	}{
		{"VNom", func(p *Params, v float64) { p.VNom = units.Volt(v) }},
		{"LoadlineOhms", func(p *Params, v float64) { p.LoadlineOhms = v }},
		{"ResonantHz", func(p *Params, v float64) { p.ResonantHz = v }},
		{"DampingZeta", func(p *Params, v float64) { p.DampingZeta = v }},
		{"PeakImpedanceOhms", func(p *Params, v float64) { p.PeakImpedanceOhms = v }},
		{"LoopResponseNs", func(p *Params, v float64) { p.LoopResponseNs = v }},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			p := DefaultParams()
			f.set(&p, v)
			if err := p.Validate(); err == nil || !strings.Contains(err.Error(), f.name) {
				t.Errorf("%s = %v: Validate() = %v, want an error naming %s", f.name, v, err, f.name)
			}
		}
	}
}

func TestSteadyVoltageMonotone(t *testing.T) {
	p := DefaultParams()
	prev := units.Volt(2)
	for pw := units.Watt(0); pw <= 300; pw += 10 {
		v := p.SteadyVoltage(pw)
		if v >= prev {
			t.Fatalf("voltage not decreasing at %v", pw)
		}
		prev = v
	}
}

func TestSteadyVoltageAtZeroPower(t *testing.T) {
	p := DefaultParams()
	if got := p.SteadyVoltage(0); got != p.VNom {
		t.Errorf("V(0) = %v, want VNom %v", got, p.VNom)
	}
}

func TestDropMagnitudeAtOperatingPoint(t *testing.T) {
	// At ~128 A (160 W / 1.25 V) the DC drop should be tens of mV —
	// the ~3% of Vdd the paper cites for the DC component.
	p := DefaultParams().CalibrateVRM(1.25, 55)
	drop := p.SteadyVoltage(55) - p.SteadyVoltage(160)
	if drop < 0.025 || drop > 0.060 {
		t.Errorf("DC drop from idle to 160 W = %v, want 25–60 mV", drop)
	}
}

func TestCalibrateVRM(t *testing.T) {
	prop := func(rp uint8) bool {
		ref := units.Watt(20 + float64(rp%200))
		p := DefaultParams().CalibrateVRM(1.25, ref)
		v := p.SteadyVoltage(ref)
		return math.Abs(float64(v-1.25)) < 1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestStepResponseShape(t *testing.T) {
	p := DefaultParams()
	if got := p.StepResponse(100, -1); got != 0 {
		t.Errorf("response before the step = %v", got)
	}
	if got := p.StepResponse(100, 0); got != 0 {
		t.Errorf("response at t=0 = %v, want 0", got)
	}
	// The first quarter-period must droop (negative deviation).
	quarter := 1 / (4 * p.ResonantHz)
	if got := p.StepResponse(100, quarter); got >= 0 {
		t.Errorf("first droop not negative: %v", got)
	}
	// The response decays: the envelope after 5 periods is tiny.
	late := p.StepResponse(100, 5/p.ResonantHz)
	if math.Abs(float64(late)) > 0.1*float64(p.FirstDroopPeak(100)) {
		t.Errorf("response did not decay: %v", late)
	}
}

func TestFirstDroopPeakMatchesResponse(t *testing.T) {
	p := DefaultParams()
	const deltaI = 80.0
	want := float64(p.FirstDroopPeak(deltaI))
	// Sample the transient densely and find the deepest droop.
	deepest := 0.0
	for i := 0; i < 4000; i++ {
		tm := float64(i) / 4000 * 2 / p.ResonantHz
		if v := -float64(p.StepResponse(deltaI, tm)); v > deepest {
			deepest = v
		}
	}
	if math.Abs(deepest-want)/want > 0.02 {
		t.Errorf("sampled peak %g vs analytic %g", deepest, want)
	}
}

func TestFirstDroopPeakLinearInCurrent(t *testing.T) {
	p := DefaultParams()
	a := float64(p.FirstDroopPeak(50))
	b := float64(p.FirstDroopPeak(100))
	if math.Abs(b-2*a) > 1e-12 {
		t.Errorf("peak not linear in current: %g vs 2×%g", b, a)
	}
}

func TestUncoveredFraction(t *testing.T) {
	p := DefaultParams()
	if got := p.UncoveredFraction(0); got != 1 {
		t.Errorf("instant droop uncovered fraction = %g, want 1", got)
	}
	if got := p.UncoveredFraction(p.LoopResponseNs); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("droop at loop response time = %g, want 0.5", got)
	}
	if got := p.UncoveredFraction(100 * p.LoopResponseNs); got > 0.02 {
		t.Errorf("slow droop uncovered fraction = %g, want ≈0", got)
	}
	prev := 2.0
	for ns := 0.1; ns < 50; ns *= 1.5 {
		u := p.UncoveredFraction(ns)
		if u >= prev {
			t.Fatalf("uncovered fraction not decreasing at %g ns", ns)
		}
		prev = u
	}
}

func TestSyncFactor(t *testing.T) {
	if got := SyncFactor(1); got != 1 {
		t.Errorf("SyncFactor(1) = %g", got)
	}
	if got := SyncFactor(0); got != 1 {
		t.Errorf("SyncFactor(0) = %g", got)
	}
	prev := 0.0
	for n := 1; n <= 16; n++ {
		f := SyncFactor(n)
		if f <= prev {
			t.Fatalf("SyncFactor not increasing at n=%d", n)
		}
		prev = f
	}
	// 8 aligned cores: between √8 and 8 (superposition with losses).
	f8 := SyncFactor(8)
	if f8 < math.Sqrt(8) || f8 > 8 {
		t.Errorf("SyncFactor(8) = %g outside (√8, 8)", f8)
	}
}
