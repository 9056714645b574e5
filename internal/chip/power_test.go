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

// TestNewRejectsBadLoadline: a negative, NaN or infinite loadline
// fails chip.New, naming the option, instead of the first Solve; 0
// selects the default.
func TestNewRejectsBadLoadline(t *testing.T) {
	for _, r := range []float64{-0.00045, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := New(silicon.Reference(), Options{LoadlineOhms: r}); err == nil || !strings.Contains(err.Error(), "LoadlineOhms") {
			t.Errorf("loadline %g: New error %v, want one naming LoadlineOhms", r, err)
		}
	}
	m, err := New(silicon.Reference(), Options{LoadlineOhms: 0})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.Chips[0].PDN.LoadlineOhms, pdn.DefaultParams().LoadlineOhms; got != want {
		t.Errorf("zero loadline built %g Ω, want the default %g", got, want)
	}
}

// TestCorePowerMonotonicity: power grows with frequency, voltage,
// temperature and dynamic capacitance — property-checked.
func TestCorePowerMonotonicity(t *testing.T) {
	tp := thermal.DefaultParams()
	prop := func(fRaw, dRaw uint8) bool {
		f := units.MHz(2000 + 30*float64(fRaw))
		w := workload.Profile{Name: "q", CdynRel: 0.1 + float64(dRaw)/255}
		base := CorePower(w, f, 1.25, tp, 50, false)
		if CorePower(w, f+100, 1.25, tp, 50, false) <= base {
			return false // frequency
		}
		if CorePower(w, f, 1.28, tp, 50, false) <= base {
			return false // voltage
		}
		if CorePower(w, f, 1.25, tp, 65, false) <= base {
			return false // temperature (leakage)
		}
		w2 := w
		w2.CdynRel += 0.05
		if CorePower(w2, f, 1.25, tp, 50, false) <= base {
			return false // activity
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestGatedPowerIsResidualLeakage(t *testing.T) {
	tp := thermal.DefaultParams()
	on := CorePower(workload.Daxpy, 4500, 1.25, tp, 60, false)
	off := CorePower(workload.Daxpy, 4500, 1.25, tp, 60, true)
	if off >= on/10 {
		t.Errorf("gated power %v not well below active %v", off, on)
	}
	if off <= 0 {
		t.Error("gated core draws nothing; retention leakage expected")
	}
}

func TestDynCurrent(t *testing.T) {
	// I = Pdyn / V: at 1.25 V, daxpy at 4.5 GHz draws ≈ 14.9 W dynamic.
	amps := DynCurrentAmps(workload.Daxpy, 4500, 1.25)
	if amps < 8 || amps > 16 {
		t.Errorf("daxpy dynamic current %.1f A implausible", amps)
	}
	if DynCurrentAmps(workload.Daxpy, 4500, 0) != 0 {
		t.Error("zero voltage should yield zero current")
	}
	// Current shrinks with voltage slower than power (I = P/V, P ∝ V²).
	lower := DynCurrentAmps(workload.Daxpy, 4500, 1.10)
	if lower >= amps {
		t.Error("current did not drop with voltage")
	}
}

// TestStressCornerCalibration pins the Sec. VII-A anchor: a chip full of
// daxpy at the fine-tuned operating point draws roughly 160 W.
func TestStressCornerCalibration(t *testing.T) {
	tp := thermal.DefaultParams()
	total := float64(UncoreW)
	for i := 0; i < 8; i++ {
		total += float64(CorePower(workload.Daxpy, 4500, 1.22, tp, 70, false))
	}
	if math.Abs(total-160) > 25 {
		t.Errorf("stress corner %.1f W, want ≈160", total)
	}
}
