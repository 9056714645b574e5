package thermal

import (
	"math"
	"testing"
)

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
