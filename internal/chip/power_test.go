package chip

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/pdn"
	"repro/internal/silicon"
	"repro/internal/thermal"
	"repro/internal/units"
	"repro/internal/workload"
)

func TestDefaultPowerModelValidates(t *testing.T) {
	if err := DefaultPowerModel().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*PowerModel){
		func(pm *PowerModel) { pm.UncoreW = -1 },
		func(pm *PowerModel) { pm.CoreLeakW = -1 },
		func(pm *PowerModel) { pm.CdynMaxWPerGHz = 0 },
		func(pm *PowerModel) { pm.GatedLeakFrac = 2 },
		func(pm *PowerModel) { pm.VRefForCdyn = 0 },
	}
	for i, mutate := range bad {
		pm := DefaultPowerModel()
		mutate(&pm)
		if err := pm.Validate(); err == nil {
			t.Errorf("mutation %d not caught", i)
		}
	}
}

// TestPowerModelRejectsNonFinite sets each field, in turn, to NaN,
// +Inf and −Inf: each must be rejected with an error naming the field.
func TestPowerModelRejectsNonFinite(t *testing.T) {
	fields := []struct {
		name string
		set  func(*PowerModel, float64)
	}{
		{"UncoreW", func(pm *PowerModel, v float64) { pm.UncoreW = units.Watt(v) }},
		{"CoreLeakW", func(pm *PowerModel, v float64) { pm.CoreLeakW = units.Watt(v) }},
		{"CdynMaxWPerGHz", func(pm *PowerModel, v float64) { pm.CdynMaxWPerGHz = units.Watt(v) }},
		{"GatedLeakFrac", func(pm *PowerModel, v float64) { pm.GatedLeakFrac = v }},
		{"VRefForCdyn", func(pm *PowerModel, v float64) { pm.VRefForCdyn = units.Volt(v) }},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			pm := DefaultPowerModel()
			f.set(&pm, v)
			if err := pm.Validate(); err == nil || !strings.Contains(err.Error(), f.name) {
				t.Errorf("%s = %v: Validate() = %v, want an error naming %s", f.name, v, err, f.name)
			}
		}
	}
}

// TestNewRejectsNaNThermalAndLoadline: a NaN thermal resistance or
// loadline fails chip.New, naming the field, instead of the first Solve.
func TestNewRejectsNaNThermalAndLoadline(t *testing.T) {
	tp := thermal.DefaultParams()
	tp.ResistanceCPerW = math.NaN()
	if _, err := New(silicon.Reference(), Options{Thermal: tp}); err == nil || !strings.Contains(err.Error(), "ResistanceCPerW") {
		t.Errorf("NaN thermal resistance: New error %v, want one naming ResistanceCPerW", err)
	}
	pp := pdn.DefaultParams()
	pp.LoadlineOhms = math.NaN()
	if _, err := New(silicon.Reference(), Options{PDN: pp}); err == nil || !strings.Contains(err.Error(), "LoadlineOhms") {
		t.Errorf("NaN loadline: New error %v, want one naming LoadlineOhms", err)
	}
}

// TestCorePowerMonotonicity: power grows with frequency, voltage,
// temperature and dynamic capacitance — property-checked.
func TestCorePowerMonotonicity(t *testing.T) {
	pm := DefaultPowerModel()
	tp := thermal.DefaultParams()
	prop := func(fRaw, dRaw uint8) bool {
		f := units.MHz(2000 + 30*float64(fRaw))
		w := workload.Profile{Name: "q", CdynRel: 0.1 + float64(dRaw)/255}
		base := pm.CorePower(w, f, 1.25, tp, 50, false)
		if pm.CorePower(w, f+100, 1.25, tp, 50, false) <= base {
			return false // frequency
		}
		if pm.CorePower(w, f, 1.28, tp, 50, false) <= base {
			return false // voltage
		}
		if pm.CorePower(w, f, 1.25, tp, 65, false) <= base {
			return false // temperature (leakage)
		}
		w2 := w
		w2.CdynRel += 0.05
		if pm.CorePower(w2, f, 1.25, tp, 50, false) <= base {
			return false // activity
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestGatedPowerIsResidualLeakage(t *testing.T) {
	pm := DefaultPowerModel()
	tp := thermal.DefaultParams()
	on := pm.CorePower(workload.Daxpy, 4500, 1.25, tp, 60, false)
	off := pm.CorePower(workload.Daxpy, 4500, 1.25, tp, 60, true)
	if off >= on/10 {
		t.Errorf("gated power %v not well below active %v", off, on)
	}
	if off <= 0 {
		t.Error("gated core draws nothing; retention leakage expected")
	}
}

func TestDynCurrent(t *testing.T) {
	pm := DefaultPowerModel()
	// I = Pdyn / V: at 1.25 V, daxpy at 4.5 GHz draws ≈ 14.9 W dynamic.
	amps := pm.DynCurrentAmps(workload.Daxpy, 4500, 1.25)
	if amps < 8 || amps > 16 {
		t.Errorf("daxpy dynamic current %.1f A implausible", amps)
	}
	if pm.DynCurrentAmps(workload.Daxpy, 4500, 0) != 0 {
		t.Error("zero voltage should yield zero current")
	}
	// Current shrinks with voltage slower than power (I = P/V, P ∝ V²).
	lower := pm.DynCurrentAmps(workload.Daxpy, 4500, 1.10)
	if lower >= amps {
		t.Error("current did not drop with voltage")
	}
}

// TestStressCornerCalibration pins the Sec. VII-A anchor: a chip full of
// daxpy at the fine-tuned operating point draws roughly 160 W.
func TestStressCornerCalibration(t *testing.T) {
	pm := DefaultPowerModel()
	tp := thermal.DefaultParams()
	total := float64(pm.UncoreW)
	for i := 0; i < 8; i++ {
		total += float64(pm.CorePower(workload.Daxpy, 4500, 1.22, tp, 70, false))
	}
	if math.Abs(total-160) > 25 {
		t.Errorf("stress corner %.1f W, want ≈160", total)
	}
}
