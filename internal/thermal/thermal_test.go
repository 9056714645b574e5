package thermal

import (
	"math"
	"strings"
	"testing"

	"repro/internal/units"
)

func TestDefaultParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
}

func TestValidateCatchesBadness(t *testing.T) {
	bad := []func(*Params){
		func(p *Params) { p.ResistanceCPerW = 0 },
		func(p *Params) { p.TjMaxC = p.AmbientC },
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
		{"ResistanceCPerW", func(p *Params, v float64) { p.ResistanceCPerW = v }},
		{"AmbientC", func(p *Params, v float64) { p.AmbientC = units.Celsius(v) }},
		{"TjMaxC", func(p *Params, v float64) { p.TjMaxC = units.Celsius(v) }},
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

// TestStressOperatingPoint pins the paper's corner: the 160 W stress
// test runs at ≈70 °C (Sec. VII-A) and stays inside the envelope.
func TestStressOperatingPoint(t *testing.T) {
	p := DefaultParams()
	temp := p.SteadyTemp(160)
	if math.Abs(float64(temp-70)) > 2 {
		t.Errorf("T(160W) = %v, want ≈70 °C", temp)
	}
	if !p.WithinEnvelope(160) {
		t.Error("160 W outside the envelope")
	}
	if p.WithinEnvelope(200) {
		t.Error("200 W wrongly inside the envelope")
	}
}

func TestMaxPowerConsistent(t *testing.T) {
	p := DefaultParams()
	pm := p.MaxPower()
	if got := p.SteadyTemp(pm); math.Abs(float64(got-p.TjMaxC)) > 1e-9 {
		t.Errorf("T(MaxPower) = %v, want TjMax %v", got, p.TjMaxC)
	}
	if !p.WithinEnvelope(pm) {
		t.Error("MaxPower not within envelope")
	}
}

func TestSteadyTempLinear(t *testing.T) {
	p := DefaultParams()
	t50 := p.SteadyTemp(50)
	t100 := p.SteadyTemp(100)
	t150 := p.SteadyTemp(150)
	if math.Abs(float64((t150-t100)-(t100-t50))) > 1e-9 {
		t.Error("steady temperature not linear in power")
	}
}

func TestLeakageScale(t *testing.T) {
	p := DefaultParams()
	if got := p.LeakageScale(p.AmbientC); math.Abs(got-1) > 1e-12 {
		t.Errorf("leakage scale at ambient = %g, want 1", got)
	}
	hot := p.LeakageScale(70)
	if hot < 1.5 || hot > 2.5 {
		t.Errorf("leakage scale at 70 °C = %g, want ~1.9", hot)
	}
	if p.LeakageScale(50) >= hot {
		t.Error("leakage not increasing with temperature")
	}
}
